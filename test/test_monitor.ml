(* Tests for the streaming monitor: incremental decoding, alert
   de-duplication, and detection latency on an attack scenario — the
   observability gap of Figure 1 closed to one polling interval. *)

module U256 = Xcw_uint256.Uint256
module Address = Xcw_evm.Address
module Chain = Xcw_chain.Chain
module Bridge = Xcw_bridge.Bridge
module Detector = Xcw_core.Detector
module Monitor = Xcw_core.Monitor
module Report = Xcw_core.Report
module T = Xcw_testlib

let u = U256.of_int

(* Shared scenario infrastructure lives in test/testlib (also used by
   the fault-injection suite). *)
let make_bridge = T.make_bridge
let monitor_input = T.monitor_input ?label:None
let user_with_tokens = T.user_with_tokens
let cur = T.cur

let no_alerts_on_benign_traffic =
  Alcotest.test_case "benign flows raise no alerts across polls" `Quick
    (fun () ->
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u1" (u 1000) in
      let d =
        Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
          ~amount:(u 400) ~beneficiary:user
      in
      ignore (Bridge.complete_deposit b ~deposit:d);
      let sb, tb = cur b in
      let alerts = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "no alerts after a completed deposit" 0
        (List.length alerts);
      (* A withdrawal round-trip is clean too. *)
      let w =
        Bridge.request_withdrawal b ~user ~dst_token:m.Bridge.m_dst_token
          ~amount:(u 100) ~beneficiary:user
      in
      ignore (Bridge.execute_withdrawal b ~withdrawal:w);
      let sb, tb = cur b in
      let alerts2 = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "no alerts after a completed withdrawal" 0
        (List.length alerts2))

let attack_detected_at_next_poll =
  Alcotest.test_case "a forged withdrawal is alerted at the next poll" `Quick
    (fun () ->
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u2" (u 100_000) in
      let d =
        Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
          ~amount:(u 100_000) ~beneficiary:user
      in
      ignore (Bridge.complete_deposit b ~deposit:d);
      let sb, tb = cur b in
      Alcotest.(check int) "clean before attack" 0
        (List.length (Monitor.poll mon ~source_block:sb ~target_block:tb));
      (* The attack. *)
      Bridge.compromise_validators b ~keys:2;
      let attacker = Address.of_seed "mon-attacker" in
      Chain.fund b.Bridge.source.Bridge.chain attacker (U256.of_tokens ~decimals:18 1);
      Chain.advance_time b.Bridge.source.Bridge.chain 600;
      ignore
        (Bridge.forged_withdrawal b ~attacker ~src_token:m.Bridge.m_src_token
           ~amount:(u 100_000) ~withdrawal_id:777);
      let sb, tb = cur b in
      let alerts = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "exactly one alert" 1 (List.length alerts);
      let a = List.hd alerts in
      Alcotest.(check string) "rule 8" "8. CCTX_ValidWithdrawal" a.Monitor.al_rule;
      Alcotest.(check bool) "classified as no-correspondence" true
        (a.Monitor.al_anomaly.Report.a_class = Report.No_correspondence);
      Alcotest.(check (float 1.0)) "valued" 100_000.0
        a.Monitor.al_anomaly.Report.a_usd_value;
      (* The same anomaly is not re-alerted. *)
      let alerts2 = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "no duplicate alerts" 0 (List.length alerts2))

let transient_unmatched_not_poisoning =
  Alcotest.test_case
    "a deposit pending relay alerts once, then the match clears state"
    `Quick (fun () ->
      (* A deposit observed before its completion looks unmatched; the
         monitor's non-monotonic re-evaluation must retract it silently
         once the relay lands (alerts are only for NEW anomalies;
         retractions simply disappear from the report). *)
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u3" (u 500) in
      let d =
        Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
          ~amount:(u 500) ~beneficiary:user
      in
      let sb, tb = cur b in
      let alerts1 = Monitor.poll mon ~source_block:sb ~target_block:tb in
      (* The pending deposit IS reported as unmatched at this point. *)
      Alcotest.(check int) "pending deposit alerted" 1 (List.length alerts1);
      ignore (Bridge.complete_deposit b ~deposit:d);
      let sb, tb = cur b in
      ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
      match Monitor.last_report mon with
      | Some report ->
          Alcotest.(check int) "report is clean after the match" 0
            (Report.total_anomalies report)
      | None -> Alcotest.fail "no report")

let incremental_decode_caches =
  Alcotest.test_case "receipts are decoded exactly once across polls" `Quick
    (fun () ->
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u4" (u 100) in
      ignore
        (Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
           ~amount:(u 100) ~beneficiary:user);
      let sb, tb = cur b in
      ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
      let facts_after_first = Monitor.facts_cached mon in
      ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
      Alcotest.(check int) "no re-decoding" facts_after_first
        (Monitor.facts_cached mon);
      Alcotest.(check int) "two polls" 2 (Monitor.polls mon))

let block_cursor_respected =
  Alcotest.test_case "receipts beyond the cursor stay invisible" `Quick
    (fun () ->
      let b, m = make_bridge () in
      let mon = Monitor.create (monitor_input b) in
      let user = user_with_tokens b m "mon-u5" (u 100) in
      let sb0, tb0 = cur b in
      ignore
        (Bridge.direct_token_transfer_to_bridge b ~user
           ~src_token:m.Bridge.m_src_token ~amount:(u 100));
      (* Poll with the OLD cursor: the anomaly is not yet visible. *)
      let alerts = Monitor.poll mon ~source_block:sb0 ~target_block:tb0 in
      Alcotest.(check int) "not seen yet" 0 (List.length alerts);
      let sb, tb = cur b in
      let alerts2 = Monitor.poll mon ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "seen at the new cursor" 1 (List.length alerts2))

let final_report_matches_batch_detector =
  Alcotest.test_case "monitor's final report equals the batch detector's"
    `Quick (fun () ->
      let b, m = make_bridge () in
      let input = monitor_input b in
      let mon = Monitor.create input in
      let user = user_with_tokens b m "mon-u6" (u 10_000) in
      (* Mixed traffic: a complete round-trip, a stuck withdrawal and a
         direct transfer. *)
      let d =
        Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
          ~amount:(u 5_000) ~beneficiary:user
      in
      ignore (Bridge.complete_deposit b ~deposit:d);
      Chain.advance_time b.Bridge.target.Bridge.chain 600;
      let w =
        Bridge.request_withdrawal b ~user ~dst_token:m.Bridge.m_dst_token
          ~amount:(u 1_000) ~beneficiary:user
      in
      ignore (Bridge.execute_withdrawal b ~withdrawal:w);
      ignore
        (Bridge.request_withdrawal b ~user ~dst_token:m.Bridge.m_dst_token
           ~amount:(u 500) ~beneficiary:user);
      ignore
        (Bridge.direct_token_transfer_to_bridge b ~user
           ~src_token:m.Bridge.m_src_token ~amount:(u 100));
      (* Poll in two steps, then compare against a one-shot detector. *)
      let sb, tb = cur b in
      ignore (Monitor.poll mon ~source_block:(sb / 2) ~target_block:(tb / 2));
      ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
      let batch = Detector.run input in
      match Monitor.last_report mon with
      | Some streamed ->
          Alcotest.(check bool) "identical reports" true
            (T.report_signature streamed
            = T.report_signature batch.Xcw_core.Detector.report)
      | None -> Alcotest.fail "no report")

let cursor_out_of_order_regression =
  Alcotest.test_case "cursor does not skip out-of-order receipts" `Quick
    (fun () ->
      (* Regression: the old cursor advanced by [seen + decoded count],
         so a receipt above the block cursor sitting BEFORE already-
         decoded ones in list order was skipped forever.  Blocks
         [1;2;10;3;4]: polling up to block 4 must decode indices
         0,1,3,4 and still deliver index 2 when the cursor reaches
         block 10. *)
      let blocks = [| 1; 2; 10; 3; 4 |] in
      let c = Monitor.Cursor.create () in
      let take up_to =
        Monitor.Cursor.take c
          ~block_of:(fun i -> blocks.(i))
          ~len:(Array.length blocks) ~up_to
      in
      Alcotest.(check (list int)) "blocks <= 4 decoded" [ 0; 1; 3; 4 ] (take 4);
      Alcotest.(check int) "four decoded" 4 (Monitor.Cursor.decoded_count c);
      Alcotest.(check (list int)) "repolling decodes nothing" [] (take 4);
      Alcotest.(check (list int)) "the held-back receipt arrives later" [ 2 ]
        (take 10);
      Alcotest.(check int) "all decoded exactly once" 5
        (Monitor.Cursor.decoded_count c))

(* Randomized differential test: on arbitrary generic-bridge traffic,
   the incremental monitor and a from-scratch monitor must emit the
   same alert records at every staged poll, and after every poll both
   on-demand reports must equal the batch detector's over the same
   chains, field by field. *)
let prop_incremental_equals_scratch =
  QCheck.Test.make ~count:8
    ~name:"incremental monitor = from-scratch monitor = batch detector"
    (T.arb_ops ~max_len:6)
    (fun ops ->
      let b, m = make_bridge () in
      let input = monitor_input b in
      let inc = Monitor.create ~incremental:true input in
      let scr = Monitor.create ~incremental:false input in
      let user = user_with_tokens b m "mon-prop" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      let ok = ref true in
      List.iteri
        (fun i op ->
          T.apply_op b m user i op;
          let sb, tb = cur b in
          let a1 = Monitor.poll inc ~source_block:sb ~target_block:tb in
          let a2 = Monitor.poll scr ~source_block:sb ~target_block:tb in
          (* Whole records: al_seq, rule, anomaly and cursor. *)
          if a1 <> a2 then ok := false;
          let batch = T.report_fields (Detector.run input).Detector.report in
          match (Monitor.last_report inc, Monitor.last_report scr) with
          | Some r1, Some r2 ->
              if T.report_fields r1 <> batch || T.report_fields r2 <> batch
              then ok := false
          | _ -> ok := false)
        ops;
      !ok)

let () =
  Alcotest.run "monitor"
    [
      ( "streaming",
        [
          no_alerts_on_benign_traffic;
          attack_detected_at_next_poll;
          transient_unmatched_not_poisoning;
          incremental_decode_caches;
          block_cursor_respected;
          final_report_matches_batch_detector;
          cursor_out_of_order_regression;
          QCheck_alcotest.to_alcotest prop_incremental_equals_scratch;
        ] );
    ]
