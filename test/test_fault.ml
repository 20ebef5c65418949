(* Fault-injection suite: the differential-testing safety net for the
   resilient RPC stack.

   The central property: for ANY transient fault plan (every failure
   mode eventually clears), a monitor polling through faulty RPC must
   emit exactly the same alerts and converge to exactly the same report
   as a fault-free monitor over the same chains — faults may delay
   detection, never change it, and never silently drop data.  The
   no-silent-gap invariant sharpens this at the fact level: once the
   faulty monitor reports synced, its decoded fact set equals the
   fault-free one (modulo trace-gap markers, which no rule consumes). *)

module U256 = Xcw_uint256.Uint256
module Types = Xcw_evm.Types
module Chain = Xcw_chain.Chain
module Bridge = Xcw_bridge.Bridge
module Rpc = Xcw_rpc.Rpc
module Fault = Xcw_rpc.Fault
module Client = Xcw_rpc.Client
module Pool = Xcw_rpc.Pool
module Latency = Xcw_rpc.Latency
module Facts = Xcw_core.Facts
module Detector = Xcw_core.Detector
module Monitor = Xcw_core.Monitor
module T = Xcw_testlib

let u = U256.of_int

let faulty_input input plan seed =
  {
    input with
    Detector.i_source_fault = Some plan;
    i_target_fault = Some plan;
    i_rpc_seed = seed;
  }

(* Poll at fixed cursors until the monitor reports synced (or the
   bound trips), accumulating alerts emitted along the way. *)
let drain ?(max_polls = 300) mon ~sb ~tb =
  let acc = ref [] in
  let polls = ref 0 in
  let synced () = (Monitor.health mon).Monitor.h_synced in
  acc := Monitor.poll mon ~source_block:sb ~target_block:tb;
  while (not (synced ())) && !polls < max_polls do
    incr polls;
    acc := !acc @ Monitor.poll mon ~source_block:sb ~target_block:tb
  done;
  (!acc, synced ())

let non_gap_facts mon =
  List.filter
    (function Facts.Trace_gap _ -> false | _ -> true)
    (Monitor.cached_facts mon)

(* ------------------------------------------------------------------ *)
(* Differential property                                               *)

let prop_differential =
  QCheck.Test.make ~count:(T.qcount 200)
    ~name:"transient faults never change alerts or the final report"
    QCheck.(triple (T.arb_ops ~max_len:4) T.arb_fault_plan (int_bound 10_000))
    (fun (ops, plan, seed) ->
      QCheck.assume (Fault.is_transient plan);
      let b, m = T.make_bridge () in
      let input = T.monitor_input b in
      let clean = Monitor.create input in
      let faulty = Monitor.create (faulty_input input plan seed) in
      let user = T.user_with_tokens b m "flt-prop" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      let clean_alerts = ref [] and faulty_alerts = ref [] in
      (* After every poll, the clean monitor's report — and the faulty
         one's whenever it is synced — equals the batch detector's over
         the same chains, field by field. *)
      let reports_ok = ref true in
      List.iteri
        (fun i op ->
          T.apply_op b m user i op;
          let sb, tb = T.cur b in
          clean_alerts :=
            !clean_alerts @ Monitor.poll clean ~source_block:sb ~target_block:tb;
          faulty_alerts :=
            !faulty_alerts
            @ Monitor.poll faulty ~source_block:sb ~target_block:tb;
          let batch = T.report_fields (Detector.run input).Detector.report in
          let same mon =
            match Monitor.last_report mon with
            | Some r -> T.report_fields r = batch
            | None -> false
          in
          if not (same clean) then reports_ok := false;
          if (Monitor.health faulty).Monitor.h_synced && not (same faulty)
          then reports_ok := false)
        ops;
      (* Catch-up on recovery: keep polling the faulty monitor at the
         final cursors until it has fully fetched both chains. *)
      let sb, tb = T.cur b in
      let late, synced = drain faulty ~sb ~tb in
      faulty_alerts := !faulty_alerts @ late;
      if not (synced && !reports_ok) then false
      else if T.alert_keys !clean_alerts <> T.alert_keys !faulty_alerts then
        false
      else
        let batch = T.report_fields (Detector.run input).Detector.report in
        match (Monitor.last_report clean, Monitor.last_report faulty) with
        | Some rc, Some rf ->
            T.report_fields rc = batch && T.report_fields rf = batch
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* No-silent-gap invariant                                             *)

let prop_no_silent_gap =
  QCheck.Test.make ~count:(T.qcount 1000)
    ~name:"synced under faults = zero pending + the exact fault-free facts"
    QCheck.(triple (T.arb_ops ~max_len:2) T.arb_fault_plan (int_bound 10_000))
    (fun (ops, plan, seed) ->
      QCheck.assume (Fault.is_transient plan);
      let b, m = T.make_bridge () in
      let input = T.monitor_input b in
      let user = T.user_with_tokens b m "flt-gap" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      List.iteri (fun i op -> T.apply_op b m user i op) ops;
      let sb, tb = T.cur b in
      let clean = Monitor.create input in
      ignore (Monitor.poll clean ~source_block:sb ~target_block:tb);
      let faulty = Monitor.create (faulty_input input plan seed) in
      let _, synced = drain ~max_polls:150 faulty ~sb ~tb in
      let h = Monitor.health faulty in
      synced
      && h.Monitor.h_pending_source = 0
      && h.Monitor.h_pending_target = 0
      && non_gap_facts faulty = non_gap_facts clean)

(* ------------------------------------------------------------------ *)
(* Structured failure modes, one at a time                             *)

let trace_outage_degrades =
  Alcotest.test_case
    "permanent tracer outage: trace-less facts, same report" `Quick (fun () ->
      let plan =
        {
          Fault.none with
          Fault.f_trace = { Fault.p_transient = 0.0; p_timeout = 1.0 };
          f_timeout_cost = 0.5;
        }
      in
      let b, m = T.make_bridge () in
      ignore (Bridge.register_native_mapping b);
      let input = T.monitor_input b in
      let user = T.user_with_tokens b m "flt-trace" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      T.apply_op b m user 0 0;
      T.apply_op b m user 1 2;
      (* Native value is the only path that needs the call tracer. *)
      let d =
        Bridge.deposit_native b ~user ~amount:(u 5_000) ~beneficiary:user
      in
      ignore (Bridge.complete_deposit b ~deposit:d);
      let sb, tb = T.cur b in
      let clean = Monitor.create input in
      ignore (Monitor.poll clean ~source_block:sb ~target_block:tb);
      let faulty = Monitor.create (faulty_input input plan 3) in
      let _, synced = drain faulty ~sb ~tb in
      Alcotest.(check bool) "synced despite the dead tracer" true synced;
      let h = Monitor.health faulty in
      Alcotest.(check bool) "trace gaps surfaced in health" true
        (h.Monitor.h_trace_gaps > 0);
      let gaps =
        List.filter
          (function Facts.Trace_gap _ -> true | _ -> false)
          (Monitor.cached_facts faulty)
      in
      Alcotest.(check int) "one gap marker per receipt losing its trace"
        h.Monitor.h_trace_gaps (List.length gaps);
      Alcotest.(check bool) "facts identical otherwise" true
        (non_gap_facts faulty = non_gap_facts clean);
      match (Monitor.last_report clean, Monitor.last_report faulty) with
      | Some rc, Some rf ->
          Alcotest.(check bool) "reports identical" true
            (T.report_signature rc = T.report_signature rf)
      | _ -> Alcotest.fail "missing report")

let reorg_rewinds_and_rebuilds =
  Alcotest.test_case "reorgs rewind the cursor; facts survive exactly once"
    `Quick (fun () ->
      let plan =
        { Fault.none with Fault.f_reorg_prob = 0.5; f_reorg_depth = 3 }
      in
      let b, m = T.make_bridge () in
      let input = T.monitor_input b in
      let user = T.user_with_tokens b m "flt-reorg" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      let clean = Monitor.create input in
      let faulty = Monitor.create (faulty_input input plan 7) in
      List.iteri
        (fun i op ->
          T.apply_op b m user i op;
          let sb, tb = T.cur b in
          ignore (Monitor.poll clean ~source_block:sb ~target_block:tb);
          ignore (Monitor.poll faulty ~source_block:sb ~target_block:tb))
        [ 0; 1; 2; 3 ];
      let sb, tb = T.cur b in
      let _, synced = drain faulty ~sb ~tb in
      Alcotest.(check bool) "synced after reorgs" true synced;
      Alcotest.(check bool) "reorg signals were handled" true
        ((Monitor.health faulty).Monitor.h_reorgs > 0);
      (* Rewound-and-redecoded receipts must not duplicate facts. *)
      Alcotest.(check bool) "facts appear exactly once" true
        (non_gap_facts faulty = non_gap_facts clean);
      match (Monitor.last_report clean, Monitor.last_report faulty) with
      | Some rc, Some rf ->
          Alcotest.(check bool) "reports identical" true
            (T.report_signature rc = T.report_signature rf)
      | _ -> Alcotest.fail "missing report")

let permanent_failure_degrades =
  Alcotest.test_case "permanent receipt failure: degraded health, no raise"
    `Quick (fun () ->
      let plan =
        {
          Fault.none with
          Fault.f_receipt = { Fault.p_transient = 1.0; p_timeout = 0.0 };
        }
      in
      let b, m = T.make_bridge () in
      let input = T.monitor_input b in
      let user = T.user_with_tokens b m "flt-dead" (u 10_000) in
      T.apply_op b m user 0 1;
      let sb, tb = T.cur b in
      let faulty = Monitor.create (faulty_input input plan 5) in
      let alerts = Monitor.poll faulty ~source_block:sb ~target_block:tb in
      Alcotest.(check int) "no alerts from an unsynced poll" 0
        (List.length alerts);
      let h = Monitor.health faulty in
      Alcotest.(check bool) "not synced" false h.Monitor.h_synced;
      Alcotest.(check bool) "pending receipts surfaced" true
        (h.Monitor.h_pending_source > 0);
      Alcotest.(check bool) "give-ups counted" true (h.Monitor.h_give_ups > 0);
      Alcotest.(check bool) "last error recorded" true
        (h.Monitor.h_last_error <> None))

let rate_limit_burst_shape =
  Alcotest.test_case "a 429 burst rejects exactly its burst length" `Quick
    (fun () ->
      let plan =
        {
          Fault.none with
          Fault.f_rate_limit_prob = 1.0;
          f_rate_limit_burst = 3;
          f_retry_after = 2.5;
        }
      in
      let f = Fault.create ~seed:1 plan in
      for _ = 1 to 6 do
        match Fault.intercept f Fault.Balance with
        | Some (Fault.Rate_limited { retry_after }) ->
            Alcotest.(check (float 0.0)) "advisory delay" 2.5 retry_after
        | _ -> Alcotest.fail "expected Rate_limited"
      done;
      Alcotest.(check int) "every request counted as a fault" 6
        (Fault.faults_injected f))

let backoff_capped_by_budget =
  Alcotest.test_case "retries stop before the latency budget" `Quick (fun () ->
      let plan =
        {
          Fault.none with
          Fault.f_balance = { Fault.p_transient = 1.0; p_timeout = 0.0 };
        }
      in
      let budget = 2.0 in
      let policy =
        { Client.default_policy with Client.p_latency_budget = budget }
      in
      let rpc = Rpc.create ~fault:plan (fst (T.make_bridge ())).Bridge.source.Bridge.chain in
      let c = Client.create ~policy ~seed:9 rpc in
      (match (Client.get_balance c (Xcw_evm.Address.of_seed "x")).Rpc.value with
      | Error (Fault.Transient _) -> ()
      | _ -> Alcotest.fail "expected the last transient error");
      let s = Client.stats c in
      Alcotest.(check int) "one give-up" 1 s.Client.s_give_ups;
      Alcotest.(check bool) "backoff stayed under the budget" true
        (s.Client.s_backoff_seconds < budget);
      Alcotest.(check bool) "some retries happened" true (s.Client.s_retries > 0))

let fault_stream_deterministic =
  Alcotest.test_case "same seed, same request sequence, same faults" `Quick
    (fun () ->
      let trace seed =
        let f = Fault.create ~seed Fault.moderate in
        let classes =
          [
            Fault.Receipt; Transaction; Trace; Logs; Head; Balance; Trace;
            Receipt;
          ]
        in
        let outcomes =
          List.concat_map
            (fun _ ->
              List.map
                (fun c ->
                  match Fault.intercept f c with
                  | None -> "ok"
                  | Some e -> Fault.error_to_string e)
                classes)
            [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
        in
        let heads =
          List.map
            (fun h ->
              let o, r = Fault.observe_head f ~head:h in
              (o, r))
            [ 10; 20; 30; 40; 50 ]
        in
        (outcomes, heads)
      in
      Alcotest.(check bool) "identical streams" true (trace 42 = trace 42);
      Alcotest.(check bool) "seed matters" true (trace 42 <> trace 43))

let batch_detector_under_faults =
  Alcotest.test_case "batch detector under moderate faults = fault-free run"
    `Quick (fun () ->
      let b, m = T.make_bridge () in
      let input = T.monitor_input b in
      let user = T.user_with_tokens b m "flt-batch" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      List.iteri (fun i op -> T.apply_op b m user i op) [ 0; 1; 2; 3; 0 ];
      let clean = Detector.run input in
      let faulty = Detector.run (faulty_input input Fault.moderate 11) in
      Alcotest.(check bool) "identical reports" true
        (T.report_signature clean.Detector.report
        = T.report_signature faulty.Detector.report);
      Alcotest.(check bool) "faults cost simulated time" true
        (faulty.Detector.report.Xcw_core.Report.simulated_rpc_seconds
        >= clean.Detector.report.Xcw_core.Report.simulated_rpc_seconds))

(* ------------------------------------------------------------------ *)
(* Byzantine endpoints and quorum reads                                *)

(* An n=3 / k=2 quorum input with exactly one lying endpoint (the same
   index on both sides); the other two endpoints are faultless. *)
let quorum_input input ~liar ~plan ~seed =
  let efs = List.init 3 (fun j -> if j = liar then Some plan else None) in
  {
    input with
    Detector.i_endpoints = 3;
    i_quorum = 2;
    i_rpc_seed = seed;
    i_source_endpoint_faults = efs;
    i_target_endpoint_faults = efs;
  }

(* The headline property: with f = 1 < k = 2 Byzantine endpoints —
   however aggressively they lie — alerts, facts and the final report
   are identical to a faultless single-endpoint run, and whenever the
   liar actually corrupted a response ({!Rpc.byzantine_injections} is
   the ground truth) it shows up in [ph_suspects]. *)
let prop_quorum_differential =
  QCheck.Test.make ~count:(T.qcount 100)
    ~name:"one Byzantine endpoint of three changes nothing and is identified"
    QCheck.(
      quad (T.arb_ops ~max_len:3) T.arb_byz_plan (int_bound 2)
        (int_bound 10_000))
    (fun (ops, plan, liar, seed) ->
      let b, m = T.make_bridge () in
      let input = T.monitor_input b in
      let clean = Monitor.create input in
      let quorum = Monitor.create (quorum_input input ~liar ~plan ~seed) in
      let user = T.user_with_tokens b m "byz-prop" (u 1_000_000) in
      T.seed_completed_deposit b m user;
      let clean_alerts = ref [] and q_alerts = ref [] in
      List.iteri
        (fun i op ->
          T.apply_op b m user i op;
          let sb, tb = T.cur b in
          clean_alerts :=
            !clean_alerts @ Monitor.poll clean ~source_block:sb ~target_block:tb;
          q_alerts :=
            !q_alerts @ Monitor.poll quorum ~source_block:sb ~target_block:tb)
        ops;
      let sb, tb = T.cur b in
      let late, synced = drain quorum ~sb ~tb in
      q_alerts := !q_alerts @ late;
      let liar_caught =
        match (Monitor.pools quorum, Monitor.pool_health quorum) with
        | Some (sp, tp), Some (sh, th) ->
            let caught pool (h : Pool.health) =
              Rpc.byzantine_injections (List.nth (Pool.endpoints pool) liar) = 0
              || List.mem liar h.Pool.ph_suspects
            in
            caught sp sh && caught tp th
        | _ -> false
      in
      synced && liar_caught
      && T.alert_keys !clean_alerts = T.alert_keys !q_alerts
      && non_gap_facts quorum = non_gap_facts clean
      &&
      match (Monitor.last_report clean, Monitor.last_report quorum) with
      | Some rc, Some rq -> T.report_signature rc = T.report_signature rq
      | _ -> false)

(* A small chain with receipts, logs and traces for driving the pool
   directly. *)
let chain_with_txs () =
  let b, m = T.make_bridge () in
  let user = T.user_with_tokens b m "byz-unit" (u 1_000_000) in
  T.seed_completed_deposit b m user;
  let c = b.Bridge.source.Bridge.chain in
  (* A transaction with a recorded call trace (deploys have none), so
     every Byzantine mode has content to corrupt. *)
  let traced =
    List.find
      (fun (r : Types.receipt) -> Chain.trace c r.Types.r_tx_hash <> None)
      (Chain.all_receipts c)
  in
  (c, traced.Types.r_tx_hash)

let pool_with_liars ?(n = 3) ?(k = 2) ~liars ~plan c =
  let eps =
    List.init n (fun j ->
        if j < liars then Rpc.create ~seed:(1_000 + (j * 7919)) ~fault:plan c
        else Rpc.create ~seed:(1_000 + (j * 7919)) c)
  in
  Pool.create ~policy:{ Pool.default_policy with Pool.q_quorum = k } eps

(* f >= k liars: their corruptions are drawn from independent PRNG
   streams, so no corrupted content group reaches the quorum either —
   the pool refuses with [Quorum_divergence] instead of serving any of
   the lies.  One unit per content-corrupting Byzantine mode. *)
let expect_divergence name plan do_call =
  Alcotest.test_case name `Quick (fun () ->
      let c, tx = chain_with_txs () in
      let pool = pool_with_liars ~liars:2 ~plan c in
      (match (do_call pool tx).Rpc.value with
      | Error (Rpc.Quorum_divergence { agreeing; needed; responders }) ->
          Alcotest.(check bool) "largest group below quorum" true
            (agreeing < needed);
          Alcotest.(check int) "all three responded" 3 responders
      | Ok _ -> Alcotest.fail "a Byzantine majority was served as truth"
      | Error e ->
          Alcotest.failf "unexpected error: %s" (Fault.error_to_string e));
      Alcotest.(check bool) "refusal surfaced in health" true
        ((Pool.health pool).Pool.ph_refusals > 0))

let byz_majority_receipt_forge =
  expect_divergence "two status forgers of three: pool refuses"
    { Fault.none with Fault.f_byz_receipt_forge = 1.0 }
    (fun pool tx -> Pool.eth_get_transaction_receipt pool tx)

let byz_majority_log_mutate =
  expect_divergence "two log mutators of three: pool refuses"
    { Fault.none with Fault.f_byz_log_mutate = 1.0 }
    (fun pool tx -> Pool.eth_get_transaction_receipt pool tx)

let byz_majority_log_drop =
  expect_divergence "two log droppers of three: pool refuses"
    { Fault.none with Fault.f_byz_log_drop = 1.0 }
    (fun pool _ -> Pool.eth_get_logs pool Rpc.default_filter)

let byz_majority_trace_truncate =
  expect_divergence "two trace truncators of three: pool refuses"
    { Fault.none with Fault.f_byz_trace_truncate = 1.0 }
    (fun pool tx -> Pool.debug_trace_transaction pool tx)

(* Heads use a numeric quorum, which cannot refuse — but equivocation
   is still visible.  With f < k the accepted head is exactly the
   honest one and the liar is flagged; with f >= k every observation
   still records at least one beyond-tolerance deviation, so the
   inconsistent endpoint set shows up in [ph_disagreements] and
   [ph_suspects] even when the liars outnumber the quorum. *)
let byz_head_equivocation_detected =
  Alcotest.test_case "head equivocators are flagged (f < k and f >= k)"
    `Quick (fun () ->
      let c, _ = chain_with_txs () in
      let plan = { Fault.none with Fault.f_byz_head_equivocate = 1.0 } in
      (* f = 1 < k: accepted head is the honest one, liar 0 flagged. *)
      let one = pool_with_liars ~liars:1 ~plan c in
      (match (Pool.observe_head one ~head:100).Rpc.value with
      | Ok hv -> Alcotest.(check int) "honest head accepted" 100 hv.Rpc.hv_head
      | Error e -> Alcotest.failf "unexpected: %s" (Fault.error_to_string e));
      Alcotest.(check (list int)) "the equivocator is the suspect" [ 0 ]
        (Pool.health one).Pool.ph_suspects;
      (* f = 2 >= k: the lie may bound the accepted head, but every
         observation exposes the inconsistency. *)
      let two = pool_with_liars ~liars:2 ~plan c in
      for _ = 1 to 4 do
        ignore (Pool.observe_head two ~head:100)
      done;
      let h = Pool.health two in
      Alcotest.(check bool) "disagreements recorded" true
        (h.Pool.ph_disagreements >= 4);
      Alcotest.(check bool) "suspect list non-empty" true
        (h.Pool.ph_suspects <> []))

(* Retries compose with quorum refusals: a pooled client retries a
   divergence (re-rolling the liars' draws) and surfaces it once the
   attempts are spent. *)
let client_retries_divergence =
  Alcotest.test_case "pooled client retries then surfaces a divergence"
    `Quick (fun () ->
      let c, tx = chain_with_txs () in
      let pool =
        pool_with_liars ~liars:2
          ~plan:{ Fault.none with Fault.f_byz_receipt_forge = 1.0 }
          c
      in
      let client = Client.create_pooled ~seed:5 pool in
      Alcotest.(check bool) "pooled provenance" true
        (Client.provenance client = Client.Quorum { k = 2; n = 3 });
      (match (Client.get_receipt client tx).Rpc.value with
      | Error (Rpc.Quorum_divergence _) -> ()
      | _ -> Alcotest.fail "expected a divergence after retries");
      let s = Client.stats client in
      Alcotest.(check bool) "divergences were retried" true
        (s.Client.s_retries > 0);
      Alcotest.(check int) "one give-up" 1 s.Client.s_give_ups)

(* Satellite: the backoff ceiling applies after jitter.  With base =
   cap = 8 s and 100% jitter every pre-clamp pause lands in [8, 16] —
   the clamped total over three retries is exactly 24 s, where the old
   clamp-before-jitter ordering produced up to 48. *)
let backoff_clamped_after_jitter =
  Alcotest.test_case "p_max_backoff caps the pause after jitter" `Quick
    (fun () ->
      let plan =
        {
          Fault.none with
          Fault.f_balance = { Fault.p_transient = 1.0; p_timeout = 0.0 };
        }
      in
      let policy =
        {
          Client.default_policy with
          Client.p_max_attempts = 4;
          p_base_backoff = 8.0;
          p_backoff_factor = 2.0;
          p_max_backoff = 8.0;
          p_jitter = 1.0;
          p_latency_budget = 1_000.0;
        }
      in
      let b, _ = T.make_bridge () in
      let rpc = Rpc.create ~fault:plan b.Bridge.source.Bridge.chain in
      let client = Client.create ~policy ~seed:17 rpc in
      (match (Client.get_balance client (Xcw_evm.Address.of_seed "cap")).Rpc.value
       with
      | Error (Fault.Transient _) -> ()
      | _ -> Alcotest.fail "expected the final transient error");
      let s = Client.stats client in
      Alcotest.(check int) "three retries" 3 s.Client.s_retries;
      Alcotest.(check (float 1e-6)) "every pause clamped to the 8 s ceiling"
        24.0 s.Client.s_backoff_seconds)

(* Satellite: every error variant prints a specific, distinct
   description — nothing falls through to a placeholder. *)
let error_strings_cover_every_variant =
  Alcotest.test_case "every error variant prints a distinct description"
    `Quick (fun () ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      let all =
        [
          Rpc.Transient "connection reset";
          Rpc.Timeout;
          Rpc.Rate_limited { retry_after = 1.5 };
          Rpc.Tracer_unavailable;
          Rpc.Truncated_range { served_to = 9 };
          Rpc.Quorum_divergence { agreeing = 1; needed = 2; responders = 3 };
          Rpc.Quorum_unavailable { responders = 1; needed = 2 };
        ]
      in
      let strings = List.map Fault.error_to_string all in
      List.iter
        (fun s ->
          Alcotest.(check bool) "non-empty" true (String.length s > 0);
          Alcotest.(check bool) "no placeholder" false
            (contains (String.lowercase_ascii s) "unknown"))
        strings;
      Alcotest.(check int) "descriptions pairwise distinct"
        (List.length all)
        (List.length (List.sort_uniq compare strings));
      (* The quorum errors carry their numbers. *)
      Alcotest.(check bool) "divergence shows the vote" true
        (contains
           (Fault.error_to_string
              (Rpc.Quorum_divergence { agreeing = 1; needed = 2; responders = 3 }))
           "1/2"))

let () =
  Alcotest.run "fault-injection"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_no_silent_gap;
          QCheck_alcotest.to_alcotest prop_quorum_differential;
        ] );
      ( "byzantine",
        [
          byz_majority_receipt_forge;
          byz_majority_log_mutate;
          byz_majority_log_drop;
          byz_majority_trace_truncate;
          byz_head_equivocation_detected;
          client_retries_divergence;
          backoff_clamped_after_jitter;
          error_strings_cover_every_variant;
        ] );
      ( "failure-modes",
        [
          trace_outage_degrades;
          reorg_rewinds_and_rebuilds;
          permanent_failure_degrades;
          rate_limit_burst_shape;
          backoff_capped_by_budget;
          fault_stream_deterministic;
          batch_detector_under_faults;
        ] );
    ]
