(* Shared scenario and generator infrastructure for the test suites.

   The monitor, fault-injection and soundness suites all randomize over
   the same space — a small two-chain bridge with mixed benign/anomalous
   traffic, qcheck generators for traffic scripts, generic-bridge specs
   and RPC fault plans — so the generators live here once instead of
   being duplicated per suite. *)

module U256 = Xcw_uint256.Uint256
module Address = Xcw_evm.Address
module Chain = Xcw_chain.Chain
module Erc20 = Xcw_chain.Erc20
module Bridge = Xcw_bridge.Bridge
module Events = Xcw_bridge.Events
module Fault = Xcw_rpc.Fault
module Config = Xcw_core.Config
module Pricing = Xcw_core.Pricing
module Decoder = Xcw_core.Decoder
module Detector = Xcw_core.Detector
module Monitor = Xcw_core.Monitor
module Report = Xcw_core.Report
module Generic = Xcw_workload.Generic
module Prng = Xcw_util.Prng

let u = U256.of_int

(* ------------------------------------------------------------------ *)
(* Small two-chain multisig bridge (monitor/fault suites)              *)

let make_bridge () =
  let s =
    Chain.create ~chain_id:1 ~name:"s" ~finality_seconds:60
      ~genesis_time:1_650_000_000
  in
  let t =
    Chain.create ~chain_id:2 ~name:"t" ~finality_seconds:30
      ~genesis_time:1_650_000_000
  in
  let b =
    Bridge.create
      {
        Bridge.s_label = "mon-test";
        s_source_chain = s;
        s_target_chain = t;
        s_escrow = Bridge.Lock_unlock;
        s_acceptance =
          Bridge.Multisig
            {
              threshold = 2;
              validator_count = 3;
              compromised_keys = 0;
              enforce_source_finality = true;
            };
        s_beneficiary_repr = Events.B_address;
        s_buggy_unmapped_withdrawal = false;
      }
  in
  let m = Bridge.register_token_pair b ~name:"Tok" ~symbol:"TOK" ~decimals:18 in
  (b, m)

let monitor_input ?(label = "mon-test") b =
  let config = Config.of_bridge b in
  let pricing = Pricing.create () in
  (* Amounts in these tests are raw token units; price them 1:1. *)
  Pricing.register pricing ~chain_id:1
    ~token:(Address.to_hex (List.hd b.Bridge.mappings).Bridge.m_src_token)
    ~usd_per_token:1.0 ~decimals:0;
  Detector.default_input ~label ~plugin:Decoder.ronin_plugin ~config
    ~source_chain:b.Bridge.source.Bridge.chain
    ~target_chain:b.Bridge.target.Bridge.chain ~pricing

let user_with_tokens b m name amount =
  let user = Address.of_seed name in
  Chain.fund b.Bridge.source.Bridge.chain user (U256.of_tokens ~decimals:18 10);
  Chain.fund b.Bridge.target.Bridge.chain user (U256.of_tokens ~decimals:18 10);
  ignore
    (Chain.submit_tx b.Bridge.source.Bridge.chain
       ~from_:b.Bridge.source.Bridge.operator ~to_:m.Bridge.m_src_token
       ~input:(Erc20.mint_calldata ~to_:user ~amount)
       ());
  user

let cur b =
  ( Chain.all_blocks b.Bridge.source.Bridge.chain |> List.length,
    Chain.all_blocks b.Bridge.target.Bridge.chain |> List.length )

(* ------------------------------------------------------------------ *)
(* Traffic scripts                                                     *)

(* One step of random bridge traffic.  Ops either complete within the
   step or stay pending forever — an anomaly once alerted is never
   retracted later, which the alert-equality differential properties
   rely on. *)
let apply_op b m user i op =
  match op with
  | 0 ->
      let d =
        Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
          ~amount:(u (100 + i)) ~beneficiary:user
      in
      ignore (Bridge.complete_deposit b ~deposit:d)
  | 1 ->
      (* left pending: unmatched until (never) relayed *)
      ignore
        (Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
           ~amount:(u (200 + i)) ~beneficiary:user)
  | 2 ->
      Chain.advance_time b.Bridge.target.Bridge.chain 120;
      let w =
        Bridge.request_withdrawal b ~user ~dst_token:m.Bridge.m_dst_token
          ~amount:(u (50 + i)) ~beneficiary:user
      in
      ignore (Bridge.execute_withdrawal b ~withdrawal:w)
  | _ ->
      ignore
        (Bridge.direct_token_transfer_to_bridge b ~user
           ~src_token:m.Bridge.m_src_token ~amount:(u (10 + i)))

let arb_ops ~max_len = QCheck.(list_of_size Gen.(1 -- max_len) (int_bound 3))

(* Seed a completed deposit so the user holds destination-side tokens
   and withdrawal ops cannot revert. *)
let seed_completed_deposit b m user =
  let d0 =
    Bridge.deposit_erc20 b ~user ~src_token:m.Bridge.m_src_token
      ~amount:(u 500_000) ~beneficiary:user
  in
  ignore (Bridge.complete_deposit b ~deposit:d0)

(* ------------------------------------------------------------------ *)
(* Alert and report signatures                                         *)

let alert_keys alerts =
  List.sort compare
    (List.map
       (fun (a : Monitor.alert) ->
         ( a.Monitor.al_rule,
           Report.class_name a.Monitor.al_anomaly.Report.a_class,
           a.Monitor.al_anomaly.Report.a_tx_hash ))
       alerts)

let report_signature (r : Report.t) =
  List.map
    (fun row ->
      ( row.Report.rr_rule,
        row.Report.rr_captured,
        List.sort compare
          (List.map
             (fun a -> (Report.class_name a.Report.a_class, a.Report.a_tx_hash))
             row.Report.rr_anomalies) ))
    r.Report.rows

(* Every report field a monitor must reproduce exactly, not only the
   signature: each row with its anomalies (USD values and details
   included, in report order), the attack and accounting rows, and the
   priced cross-chain dataset. *)
let report_fields (r : Report.t) =
  (r.Report.rows, r.Report.attack_rows, r.Report.acc_rows, r.Report.cctxs)

(* ------------------------------------------------------------------ *)
(* Golden rendering                                                    *)

(* The stable text form the golden fixtures pin (test/golden/*.golden).
   Shared between the batch golden suite and the fleet suite, which
   re-renders per-lane monitor reports against the same fixtures. *)
let render_report (r : Report.t) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "bridge: %s\n" r.Report.bridge_name;
  List.iter
    (fun row ->
      let anomalies =
        List.sort compare
          (List.map
             (fun (a : Report.anomaly) ->
               Printf.sprintf "%s(%s chain=%d $%.2f)"
                 (Report.class_name a.Report.a_class)
                 a.Report.a_tx_hash a.Report.a_chain_id a.Report.a_usd_value)
             row.Report.rr_anomalies)
      in
      Printf.bprintf buf "%s | captured=%d%s\n" row.Report.rr_rule
        row.Report.rr_captured
        (match anomalies with
        | [] -> ""
        | l -> " | " ^ String.concat " " l))
    r.Report.rows;
  Printf.bprintf buf "total_anomalies=%d cctxs=%d facts=%d\n"
    (Report.total_anomalies r)
    (List.length r.Report.cctxs)
    r.Report.total_facts;
  Buffer.contents buf

(* Attack-pack reports additionally pin the per-class attack tables:
   the hits carry ids, USD values and the human-readable detail line,
   so any drift in the attack rules or their dissection shows up. *)
let render_attack_report (r : Report.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (render_report r);
  List.iter
    (fun (ar : Report.attack_row) ->
      let hits =
        List.map
          (fun (h : Report.attack_hit) ->
            Printf.sprintf "%s(chain=%d id=%d $%.2f %s)" h.Report.ah_tx_hash
              h.Report.ah_chain_id h.Report.ah_id h.Report.ah_usd_value
              h.Report.ah_detail)
          ar.Report.ar_hits
      in
      Printf.bprintf buf "attack: %s | rule=%s | hits=%d%s\n"
        (Report.attack_class_name ar.Report.ar_class)
        ar.Report.ar_rule (List.length hits)
        (match hits with [] -> "" | l -> " | " ^ String.concat " " l))
    r.Report.attack_rows;
  Buffer.contents buf

(* Accounting (exit-bridge) reports pin the pessimistic-accounting
   tables the same way: one paper-style row per accounting class with
   the priced, leaf/epoch-tagged evidence hits. *)
let render_accounting_report (r : Report.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (render_report r);
  List.iter
    (fun (xr : Report.acc_row) ->
      let hits =
        List.map
          (fun (h : Report.attack_hit) ->
            Printf.sprintf "%s(chain=%d id=%d $%.2f %s)" h.Report.ah_tx_hash
              h.Report.ah_chain_id h.Report.ah_id h.Report.ah_usd_value
              h.Report.ah_detail)
          xr.Report.xr_hits
      in
      Printf.bprintf buf "accounting: %s | rule=%s | hits=%d%s\n"
        (Report.acc_class_name xr.Report.xr_class)
        xr.Report.xr_rule (List.length hits)
        (match hits with [] -> "" | l -> " | " ^ String.concat " " l))
    r.Report.acc_rows;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let first_diff expected actual =
  let el = String.split_on_char '\n' expected in
  let al = String.split_on_char '\n' actual in
  let rec go i = function
    | e :: es, a :: aas ->
        if e = a then go (i + 1) (es, aas)
        else Printf.sprintf "line %d:\n  expected: %s\n  actual:   %s" i e a
    | e :: _, [] -> Printf.sprintf "line %d missing:\n  expected: %s" i e
    | [], a :: _ -> Printf.sprintf "line %d extra:\n  actual: %s" i a
    | [], [] -> "identical"
  in
  go 1 (el, al)

(* ------------------------------------------------------------------ *)
(* Stress scaling                                                      *)

(* QCheck case-count scaling for the @stress alias: [qcount n] is [n]
   normally and [n * XCW_STRESS] when that variable holds a multiplier
   (tools/stress.sh sets 10).  Suites whose properties matter at scale
   (parallel/incremental/quorum differentials) route their [~count]
   through this. *)
let qcount n =
  match Sys.getenv_opt "XCW_STRESS" with
  | Some s -> ( match int_of_string_opt s with Some m when m > 0 -> n * m | _ -> n * 10)
  | None -> n

(* ------------------------------------------------------------------ *)
(* Misc generators                                                     *)

(* Random raw bytes for hostile-input fuzzing. *)
let arb_bytes = QCheck.(string_of_size Gen.(0 -- 300))

(* Out-of-order block sequences for receipt-cursor tests: block numbers
   mostly ascending with occasional spikes, as produced by a list that
   is not strictly block-sorted. *)
let arb_block_sequence =
  QCheck.(
    map
      (fun (seed, len) ->
        let rng = Prng.create seed in
        Array.init len (fun i ->
            if Prng.int rng 4 = 0 then 1 + Prng.int rng (3 * len + 1)
            else i + 1))
      (pair (int_bound 100_000) (int_range 1 30)))

let shuffle_receipts ~seed xs =
  let rng = Prng.create seed in
  Prng.shuffle rng xs

(* Generic-bridge soundness specs (any acceptance/escrow/beneficiary
   combination over benign traffic). *)
let spec_of_quad (seed, n_erc20, n_wdr, (optimistic, bytes32)) =
  {
    Generic.default_spec with
    Generic.g_seed = seed;
    g_erc20_deposits = n_erc20;
    g_native_deposits = n_erc20 / 3;
    g_withdrawals = n_wdr;
    g_via_aggregator = n_erc20 / 5;
    g_acceptance = (if optimistic then `Optimistic else `Multisig);
    g_beneficiary_repr = (if bytes32 then Events.B_bytes32 else Events.B_address);
    g_source_finality = (if optimistic then 1800 else 78);
  }

let arb_generic_spec =
  QCheck.(
    map spec_of_quad
      (quad (int_range 1 100_000) (int_range 0 25) (int_range 0 12)
         (pair bool bool)))

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

(* Transient fault plans: every probability strictly below 1, so a
   retrying client (or a re-polling monitor) eventually sees every
   request succeed — the precondition of the differential property.
   Probabilities are generated as integer percentages to keep the
   shrinker effective. *)
let arb_fault_plan =
  let open QCheck in
  let plan_of
      ( (p_trans, p_timeout, p_trace_timeout),
        (rate_pct, burst, lag),
        (reorg_pct, depth, outage_pct),
        cap ) =
    let probs =
      {
        Fault.p_transient = float_of_int p_trans /. 100.;
        p_timeout = float_of_int p_timeout /. 100.;
      }
    in
    {
      Fault.f_receipt = probs;
      f_transaction = probs;
      f_balance = probs;
      f_logs = probs;
      f_trace =
        {
          Fault.p_transient = float_of_int p_trans /. 100.;
          p_timeout = float_of_int p_trace_timeout /. 100.;
        };
      f_head = probs;
      f_rate_limit_prob = float_of_int rate_pct /. 100.;
      f_rate_limit_burst = burst;
      f_retry_after = 0.5;
      f_timeout_cost = 5.0;
      f_logs_range_cap = (if cap = 0 then None else Some cap);
      f_trace_outage_prob = float_of_int outage_pct /. 100.;
      f_trace_outage_len = 4;
      f_stale_head_lag = lag;
      f_reorg_prob = float_of_int reorg_pct /. 100.;
      f_reorg_depth = depth;
      f_byz_log_mutate = 0.;
      f_byz_log_drop = 0.;
      f_byz_receipt_forge = 0.;
      f_byz_trace_truncate = 0.;
      f_byz_head_equivocate = 0.;
    }
  in
  map plan_of
    (quad
       (triple (int_bound 30) (int_bound 20) (int_bound 40))
       (triple (int_bound 10) (int_range 1 4) (int_bound 3))
       (triple (int_bound 20) (int_range 1 3) (int_bound 5))
       (int_bound 5))

(* Byzantine plans: the endpoint answers every request (no availability
   faults at all) but corrupts served data with the given per-mode
   percentages — up to and including always-lying (100%).  Used as the
   liar's plan in the quorum differential property. *)
let arb_byz_plan =
  let open QCheck in
  let plan_of ((mutate, drop), (forge, trunc), equiv) =
    {
      Fault.none with
      Fault.f_byz_log_mutate = float_of_int mutate /. 100.;
      f_byz_log_drop = float_of_int drop /. 100.;
      f_byz_receipt_forge = float_of_int forge /. 100.;
      f_byz_trace_truncate = float_of_int trunc /. 100.;
      f_byz_head_equivocate = float_of_int equiv /. 100.;
    }
  in
  map plan_of
    (triple
       (pair (int_bound 100) (int_bound 100))
       (pair (int_bound 100) (int_bound 100))
       (int_bound 100))
