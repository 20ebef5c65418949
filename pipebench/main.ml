(* Pipeline benchmark: the real detection path (simulated chains ->
   rpc -> decoder -> facts -> engine -> dissect/report -> monitor ->
   store) timed end to end and, in a traced run, layer by layer.

   Usage (from the repository root):
     bash pipebench/run.sh --workload W --seed N --seconds S --trace 0|1

   Workloads (see pipebench/README.md for why each exists):
   - ronin-batch: Ronin at scale 0.5, repeated [Detector.run].
   - nomad-stream: Nomad at scale 0.25 as history, then a closed loop of
     benign round trips and periodic direct transfers, one poll a step.
   - nomad-durable: the same loop with a checkpointed monitor under
     [Fault.moderate], then a close/reopen recovery.

   Everything runs in this one process at the program's defaults
   ([--jobs 1]: no domain is spawned).  The last line of stdout is one
   JSON object {correct, attempted, failed, metrics}; with [--trace 0]
   the metrics are the end-to-end ones, with [--trace 1] the per-layer
   ones.  A failed correctness gate exits 1 without that line. *)

module Json = Xcw_util.Json
module Stats = Xcw_util.Stats
module U256 = Xcw_uint256.Uint256
module Address = Xcw_evm.Address
module Types = Xcw_evm.Types
module Chain = Xcw_chain.Chain
module Bridge = Xcw_bridge.Bridge
module Client = Xcw_rpc.Client
module Fault = Xcw_rpc.Fault
module Metrics = Xcw_obs.Metrics
module Span = Xcw_obs.Span
module Engine = Xcw_datalog.Engine
module Ast = Xcw_datalog.Ast
module Store = Xcw_store.Store
module Config = Xcw_core.Config
module Decoder = Xcw_core.Decoder
module Facts = Xcw_core.Facts
module Dissect = Xcw_core.Dissect
module Report = Xcw_core.Report
module Rules = Xcw_core.Rules
module Detector = Xcw_core.Detector
module Monitor = Xcw_core.Monitor
module Scenario = Xcw_workload.Scenario

let now = Unix.gettimeofday

exception Gate of string

let gate cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Gate msg)) fmt

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "ronin-batch|nomad-stream|nomad-durable");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pipebench --workload W --seed N --seconds S --trace 0|1";
  if !seed < 0 then raise (Arg.Bad "--seed must be non-negative");
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* ------------------------------------------------------------------ *)
(* Statistics, GC and output                                           *)

let median = Stats.median

(* The highest percentile (at most p90) that has at least ten samples
   beyond it; the maximum when there are fewer than eleven samples. *)
let tail xs =
  let n = List.length xs in
  if n < 11 then (100.0, List.fold_left Float.max neg_infinity xs)
  else
    let p =
      Float.min 90.0 (100.0 *. float_of_int (n - 11) /. float_of_int (n - 1))
    in
    (p, Stats.percentile p xs)

(* Ordinary least-squares slope of ys against xs. *)
let ols_slope xs ys =
  let n = float_of_int (List.length xs) in
  let mx = List.fold_left ( +. ) 0.0 xs /. n in
  let my = List.fold_left ( +. ) 0.0 ys /. n in
  let sxy, sxx =
    List.fold_left2
      (fun (sxy, sxx) x y ->
        (sxy +. ((x -. mx) *. (y -. my)), sxx +. ((x -. mx) *. (x -. mx))))
      (0.0, 0.0) xs ys
  in
  if sxx = 0.0 then 0.0 else sxy /. sxx

type gc_mark = { g_alloc : float; g_minor : float; g_majors : int }

(* [Gc.minor_words] is exact; [quick_stat]'s minor count only moves at
   minor collections, which with the engine's 64 MB minor heap hides
   whole layers. *)
let gc_mark () =
  let s = Gc.quick_stat () in
  let minor = Gc.minor_words () in
  {
    g_alloc = minor +. s.Gc.major_words -. s.Gc.promoted_words;
    g_minor = minor;
    g_majors = s.Gc.major_collections;
  }

(* Megawords allocated since [a]. *)
let alloc_mw a = ((gc_mark ()).g_alloc -. a.g_alloc) /. 1e6

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* GC activity of one named phase, as two per-layer metrics. *)
let gc_phase name a =
  let b = gc_mark () in
  [
    ("gc." ^ name ^ ".minor_mw", (b.g_minor -. a.g_minor) /. 1e6, "Mw");
    ( "gc." ^ name ^ ".major_collections",
      float_of_int (b.g_majors - a.g_majors),
      "count" );
  ]

(* Host-speed reference.  On a shared 2-core VM the CPU speed was
   measured to drift by about +-20% over tens of seconds (other
   tenants), which moves every wall time of a run together.  Before each timed operation the benchmark times a
   fixed kernel three times.  It shares no code with the program and
   allocates nothing on the OCaml heap, so neither the program's code
   nor its heap can change it: pseudo-random read-modify-writes over a
   4 MB table, then independent random reads over 64 MB, the access
   pattern of hash probes into small and large relations.  Time metrics
   are reported scaled to a host on which the kernel takes
   [reference_nominal] seconds. *)
let reference_nominal = 4.5e-3
let reference_samples = ref []
let small_table = Bigarray.(Array1.create int c_layout (1 lsl 19))
let large_table = Bigarray.(Array1.create int c_layout (1 lsl 23))

let () =
  Bigarray.Array1.fill small_table 0;
  Bigarray.Array1.fill large_table 1

let reference () =
  let mask = Bigarray.Array1.dim small_table - 1 in
  let lmask = Bigarray.Array1.dim large_table - 1 in
  for _ = 1 to 3 do
    let t0 = now () in
    let x = ref 0x2545F491 and acc = ref 0 in
    for i = 1 to 200_000 do
      x := ((!x * 0x5DEECE66D) + 11) land max_int;
      let j = (!x lsr 17) land mask in
      small_table.{j} <- small_table.{j} + i
    done;
    for _ = 1 to 100_000 do
      x := ((!x * 0x5DEECE66D) + 11) land max_int;
      acc := !acc + large_table.{(!x lsr 13) land lmask}
    done;
    ignore (Sys.opaque_identity !acc);
    reference_samples := (now () -. t0) :: !reference_samples
  done

(* Multiply a measured wall time by this to report it at the reference
   speed. *)
let speed_factor () = reference_nominal /. median !reference_samples

let emit ~attempted metrics =
  let metrics =
    List.map
      (fun (name, v, unit) ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool true);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int 0);
            ("metrics", Json.Obj metrics);
          ]))

(* The end-to-end line.  [walls] are measured wall times, printed raw
   on an info line and reported scaled by {!speed_factor}; [others]
   (simulated seconds, memory) are reported as measured. *)
let emit_end_to_end ~attempted ~walls ~others =
  let k = speed_factor () in
  Printf.printf "host speed factor %.4f (reference median %.3f ms over %d samples); raw:"
    k (1000.0 *. median !reference_samples) (List.length !reference_samples);
  List.iter (fun (n, v, u) -> Printf.printf " %s=%.6g%s" n v u) walls;
  print_newline ();
  emit ~attempted
    (List.map (fun (n, v, u) -> (n, v *. k, u)) walls @ others)

(* Every per-layer metric, in output order.  A traced run reports all of
   them; a layer that does no work on a workload reports 0. *)
let per_layer =
  [
    ("rpc.requests", "count"); ("rpc.retries", "count");
    ("rpc.give_ups", "count"); ("rpc.sim_s", "s");
    ("decoder.s", "s"); ("decoder.receipts", "count");
    ("decoder.facts", "count"); ("decoder.alloc_mw", "Mw");
    ("facts.load_s", "s"); ("facts.edb_tuples", "count");
    ("facts.symbols", "count"); ("facts.alloc_mw", "Mw");
    ("engine.run_s", "s"); ("engine.tuples_derived", "count");
    ("engine.alloc_mw", "Mw"); ("engine.incr_ms", "ms");
    ("engine.delta_tuples_per_poll", "count");
    ("engine.strata_recomputed_per_poll", "count");
    ("engine.strata_seminaive_per_poll", "count");
    ("engine.strata_skipped_per_poll", "count");
    ("engine.retractions_per_poll", "count");
    ("engine.incr_tuples_derived_per_poll", "count");
    ("dissect.s", "s"); ("dissect.anomalies", "count");
    ("dissect.alloc_mw", "Mw"); ("report.render_s", "s");
    ("report.bytes", "B"); ("monitor.other_ms", "ms");
    ("monitor.ms_per_krtt", "ms/krtt"); ("monitor.facts_cached", "count");
    ("monitor.unsynced_polls", "count"); ("monitor.polls", "count");
    ("monitor.history_rtt", "count"); ("store.wal_bytes_per_poll", "B");
    ("store.snapshot_bytes", "B"); ("store.snapshot_poll_extra_ms", "ms");
    ("store.recover_s", "s"); ("store.disk_mb", "MB");
    ("gc.setup.minor_mw", "Mw"); ("gc.setup.major_collections", "count");
    ("gc.cold.minor_mw", "Mw"); ("gc.cold.major_collections", "count");
    ("gc.loop.minor_mw", "Mw"); ("gc.loop.major_collections", "count");
    ("ops.failed_ratio", "ratio"); ("trace.overhead_pct", "%");
    ("trace.spans_dropped", "count");
  ]

let emit_layers ~attempted measured =
  List.iter
    (fun (name, _, unit) ->
      match List.assoc_opt name per_layer with
      | Some u when u = unit -> ()
      | _ -> failwith ("pipebench: unknown per-layer metric " ^ name))
    measured;
  emit ~attempted
    (List.map
       (fun (name, unit) ->
         match List.find_opt (fun (n, _, _) -> n = name) measured with
         | Some m -> m
         | None -> (name, 0.0, unit))
       per_layer)

(* Sum of a counter (or histogram sum) over every label set. *)
let metric_total name =
  List.fold_left
    (fun acc (m : Metrics.metric) ->
      if m.Metrics.m_name <> name then acc
      else
        match m.Metrics.m_value with
        | Metrics.V_counter c -> acc +. float_of_int c
        | Metrics.V_histogram h -> acc +. h.Metrics.h_sum
        | Metrics.V_gauge g -> acc +. g)
    0.0
    (Metrics.snapshot (Metrics.default ()))

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

(* Everything a report classifies, without timings: rule rows, attack
   rows and accounting rows, each anomaly as (class, tx). *)
let signature (r : Report.t) =
  let hits hs =
    List.sort compare (List.map (fun h -> h.Report.ah_tx_hash) hs)
  in
  ( List.map
      (fun row ->
        ( row.Report.rr_rule,
          row.Report.rr_captured,
          List.sort compare
            (List.map
               (fun a -> (Report.class_name a.Report.a_class, a.Report.a_tx_hash))
               row.Report.rr_anomalies) ))
      r.Report.rows,
    List.map
      (fun ar ->
        (Report.attack_class_name ar.Report.ar_class, ar.Report.ar_rule, hits ar.Report.ar_hits))
      r.Report.attack_rows,
    List.map
      (fun xr ->
        (Report.acc_class_name xr.Report.xr_class, xr.Report.xr_rule, hits xr.Report.xr_hits))
      r.Report.acc_rows )

let rpc_failures (r : Detector.result) =
  List.length
    (List.filter
       (fun (e : Decoder.decode_error) ->
         String.length e.Decoder.err_detail >= 11
         && String.sub e.Decoder.err_detail 0 11 = "rpc failure")
       r.Detector.decode_errors)

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)

let ronin_scale = 0.5
let nomad_scale = 0.25

let input_of ~label ~plugin ~seed (b : Scenario.built) =
  let input =
    Detector.default_input ~label ~plugin ~config:b.Scenario.config
      ~source_chain:b.Scenario.bridge.Bridge.source.Bridge.chain
      ~target_chain:b.Scenario.bridge.Bridge.target.Bridge.chain
      ~pricing:b.Scenario.pricing
  in
  {
    input with
    Detector.i_first_window_withdrawal_id = b.Scenario.first_window_withdrawal_id;
    i_rpc_seed = 7 + (31 * seed);
  }

let timed_build build =
  Gc.compact ();
  reference ();
  let t0 = now () in
  let b = build () in
  (b, now () -. t0)

(* Build the scenario [reps] times from the same seed and keep the last;
   [setup_s] is the median build wall.  Each build is dropped before the
   next one is timed, so every build starts from the same heap. *)
let setup ~reps build =
  let walls = ref [] and last = ref None in
  for _ = 1 to reps do
    last := None;
    let b, wall = timed_build build in
    walls := wall :: !walls;
    last := Some b
  done;
  (Option.get !last, median !walls, List.length !walls)

(* ------------------------------------------------------------------ *)
(* Layer by layer: Detector.run's own sequence of public calls         *)

type layers = {
  l_report : Report.t;
  l_wall : float;  (** the sequence up to the report, as Detector.run *)
  l_metrics : (string * float * string) list;
}

let traced_detect ~tracer (input : Detector.input) =
  let span name f =
    let g = gc_mark () in
    let t0 = now () in
    let v = Span.with_ ~tracer ("bench." ^ name) f in
    (v, now () -. t0, alloc_mw g)
  in
  let requests0 = metric_total "xcw_rpc_requests_total" in
  let t0 = now () in
  Engine.recommended_gc_setup ();
  let client side_seed profile fault endpoint_faults chain =
    Detector.build_client ~profile ~seed:side_seed
      ~policy:input.Detector.i_client_policy
      ~endpoints:input.Detector.i_endpoints ~quorum:input.Detector.i_quorum
      ~fault ~endpoint_faults chain
  in
  let (src_client, dst_client), _, _ =
    span "rpc.clients" (fun () ->
        ( client input.Detector.i_rpc_seed input.Detector.i_source_profile
            input.Detector.i_source_fault input.Detector.i_source_endpoint_faults
            input.Detector.i_source_chain,
          client (input.Detector.i_rpc_seed + 1) input.Detector.i_target_profile
            input.Detector.i_target_fault input.Detector.i_target_endpoint_faults
            input.Detector.i_target_chain ))
  in
  let config = input.Detector.i_config in
  let (src_decoded, dst_decoded), decode_s, decode_mw =
    span "decoder" (fun () ->
        let s =
          Decoder.decode_chain ~ndomains:input.Detector.i_ndomains
            input.Detector.i_plugin config ~role:Decoder.Source src_client input.Detector.i_source_chain
        in
        let d =
          Decoder.decode_chain ~ndomains:input.Detector.i_ndomains
            input.Detector.i_plugin config ~role:Decoder.Target dst_client input.Detector.i_target_chain
        in
        (s, d))
  in
  let decoded = src_decoded @ dst_decoded in
  let db, load_s, load_mw =
    span "facts" (fun () ->
        let db = Engine.create_db () in
        ignore (Facts.load_all db (Config.to_facts config));
        List.iter
          (fun (rd : Decoder.receipt_decode) ->
            ignore (Facts.load_all db rd.Decoder.rd_facts))
          decoded;
        db)
  in
  let edb_tuples = Engine.total_tuples db in
  let stats, run_s, run_mw =
    span "engine" (fun () ->
        Engine.run ~ndomains:input.Detector.i_ndomains
          ~aggregates:Rules.aggregates db input.Detector.i_program)
  in
  let errors = List.concat_map (fun rd -> rd.Decoder.rd_errors) decoded in
  let rpc_sim =
    Client.total_latency src_client +. Client.total_latency dst_client
  in
  let report, dissect_s, dissect_mw =
    span "dissect" (fun () ->
        Dissect.dissect ~label:input.Detector.i_label ~config
          ~pricing:input.Detector.i_pricing
          ~first_window_withdrawal_id:
            input.Detector.i_first_window_withdrawal_id ~decode_errors:errors
          ~db ~decode_seconds:(decode_s +. load_s) ~eval_seconds:run_s
          ~simulated_rpc_seconds:rpc_sim ~total_facts:edb_tuples ())
  in
  (* Detector.run stops here: rendering is the caller's. *)
  let wall = now () -. t0 in
  let bytes, render_s, _ =
    span "report" (fun () ->
        String.length (Report.to_string report)
        + String.length (Json.to_string (Report.to_json report)))
  in
  let stat c = Client.stats c in
  let facts =
    List.fold_left (fun n rd -> n + List.length rd.Decoder.rd_facts) 0 decoded
  in
  {
    l_report = report;
    l_wall = wall;
    l_metrics =
      [
        ( "rpc.requests",
          metric_total "xcw_rpc_requests_total" -. requests0,
          "count" );
        ( "rpc.retries",
          float_of_int
            ((stat src_client).Client.s_retries + (stat dst_client).Client.s_retries),
          "count" );
        ( "rpc.give_ups",
          float_of_int
            ((stat src_client).Client.s_give_ups
            + (stat dst_client).Client.s_give_ups),
          "count" );
        ("rpc.sim_s", rpc_sim, "s");
        ("decoder.s", decode_s, "s");
        ("decoder.receipts", float_of_int (List.length decoded), "count");
        ("decoder.facts", float_of_int facts, "count");
        ("decoder.alloc_mw", decode_mw, "Mw");
        ("facts.load_s", load_s, "s");
        ("facts.edb_tuples", float_of_int edb_tuples, "count");
        ("facts.symbols", float_of_int (Ast.Symtab.size ()), "count");
        ("facts.alloc_mw", load_mw, "Mw");
        ("engine.run_s", run_s, "s");
        ("engine.tuples_derived", float_of_int stats.Engine.tuples_derived, "count");
        ("engine.alloc_mw", run_mw, "Mw");
        ("dissect.s", dissect_s, "s");
        ("dissect.anomalies", float_of_int (Report.total_anomalies report), "count");
        ("dissect.alloc_mw", dissect_mw, "Mw");
        ("report.render_s", render_s, "s");
        ("report.bytes", float_of_int bytes, "B");
      ];
  }

(* Detector.run timed from a compacted heap, so that each run starts
   from the same heap. *)
let timed_detect input =
  Gc.compact ();
  reference ();
  let t0 = now () in
  let r = Detector.run input in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* ronin-batch                                                         *)

let ronin_batch args =
  let build () =
    Xcw_workload.Ronin.build ~seed:args.seed ~scale:ronin_scale ()
  in
  let g_setup = gc_mark () in
  let b, setup_s, setup_reps = setup ~reps:(if args.trace then 1 else 3) build in
  let setup_gc = gc_phase "setup" g_setup in
  let input = input_of ~label:"ronin" ~plugin:Decoder.ronin_plugin ~seed:args.seed b in
  let receipts =
    Chain.transaction_count input.Detector.i_source_chain
    + Chain.transaction_count input.Detector.i_target_chain
  in
  let detect () =
    let r, wall = timed_detect input in
    let rep = r.Detector.report in
    (signature rep, wall, r)
  in
  (* Cold start of the incremental monitor over the same chains. *)
  let catch_up () =
    Gc.compact ();
    reference ();
    let t0 = now () in
    let mon = Monitor.create input in
    ignore
      (Monitor.poll mon
         ~source_block:(List.length (Chain.all_blocks input.Detector.i_source_chain))
         ~target_block:(List.length (Chain.all_blocks input.Detector.i_target_chain)));
    let wall = now () -. t0 in
    gate (Monitor.health mon).Monitor.h_synced "ronin-batch: monitor not synced";
    match Monitor.last_report mon with
    | Some r -> (signature r, wall)
    | None -> raise (Gate "ronin-batch: monitor produced no report")
  in
  (* The first detection is untimed: it fills the process-wide symbol
     table ([Ast.Symtab]), which makes it the slowest, and its report is
     the reference every later report must reproduce. *)
  let sig0, first_wall, failures, rpc, anomalies =
    let s, wall, r = detect () in
    let rep = r.Detector.report in
    (s, wall, rpc_failures r, rep.Report.simulated_rpc_seconds, Report.total_anomalies rep)
  in
  gate (anomalies > 0) "ronin-batch: no anomalies detected";
  let same what s =
    gate (s = sig0) "ronin-batch: %s report differs from the first Detector.run" what
  in
  if not args.trace then begin
    (* The timed loop: a monitor cold start and a batch detection per
       iteration, at least two of each, until [seconds] elapse. *)
    let walls = ref [] and catchups = ref [] in
    let t_start = now () in
    while List.length !catchups < 2 || now () -. t_start < args.seconds do
      let s, wall = catch_up () in
      same "monitor catch-up" s;
      catchups := wall :: !catchups;
      let s, wall, _ = detect () in
      same "Detector.run" s;
      walls := wall :: !walls
    done;
    let walls = List.rev !walls and catchup_s = median !catchups in
    let ms = List.map (fun w -> 1000.0 *. w) walls in
    let p, p_tail = tail ms in
    Printf.printf
      "ronin-batch: %d setups, first detection %.3f s, %d more (poll = one Detector.run; tail p%.1f), %d catch-ups, %d receipts, %d anomalies\n"
      setup_reps first_wall (List.length walls) p (List.length !catchups) receipts anomalies;
    emit_end_to_end ~attempted:(List.length walls)
      ~walls:
        [
          ("setup_s", setup_s, "s");
          ("detect_s", median walls, "s");
          ("catchup_s", catchup_s, "s");
          ("poll_p50_ms", median ms, "ms");
          ("poll_p90_ms", p_tail, "ms");
        ]
      ~others:[ ("rpc_sim_s", rpc, "s"); ("peak_heap_mb", peak_heap_mb (), "MB") ]
  end
  else begin
    (* Traced layer sequences alternate with untraced Detector.run, at
       least two of each, until [seconds] elapse: in one process later
       runs are faster than earlier ones, so only alternation compares
       them fairly.  The GC phases are the first pair's. *)
    let default_tracer = Span.default () in
    let tracer = Span.create ~capacity:65536 () in
    let traced = ref [] and walls = ref [] and phases = ref [] in
    let t_start = now () in
    while List.length !walls < 2 || now () -. t_start < args.seconds do
      Span.set_default tracer;
      Gc.compact ();
      reference ();
      let g_cold = gc_mark () in
      let l = traced_detect ~tracer input in
      let cold_gc = gc_phase "cold" g_cold in
      Span.set_default default_tracer;
      same "layer-by-layer" (signature l.l_report);
      traced := l :: !traced;
      let g_loop = gc_mark () in
      let s, wall, _ = detect () in
      same "Detector.run" s;
      walls := wall :: !walls;
      if !phases = [] then phases := cold_gc @ gc_phase "loop" g_loop
    done;
    let traced = !traced and walls = !walls in
    let traced_wall = median (List.map (fun l -> l.l_wall) traced) in
    let overhead = 100.0 *. ((traced_wall /. median walls) -. 1.0) in
    (* Each layer metric is the median over the traced sequences. *)
    let layer_metrics =
      List.map
        (fun (name, _, unit) ->
          ( name,
            median
              (List.map
                 (fun l ->
                   let _, v, _ = List.find (fun (n, _, _) -> n = name) l.l_metrics in
                   v)
                 traced),
            unit ))
        (List.hd traced).l_metrics
    in
    let dropped = Span.dropped tracer in
    gate (dropped = 0) "ronin-batch: %d spans dropped" dropped;
    Printf.printf
      "ronin-batch traced: layer sequence median %.3f s vs Detector.run median %.3f s, %d of each (overhead %+.1f%%), Span.dropped = %d\n"
      traced_wall (median walls) (List.length walls) overhead dropped;
    emit_layers ~attempted:(1 + (2 * List.length walls))
      (layer_metrics
      @ [
          ("monitor.history_rtt", float_of_int (receipts / 2), "count");
          ("ops.failed_ratio", float_of_int failures /. float_of_int receipts, "ratio");
        ]
      @ setup_gc @ !phases
      @ [
          ("trace.overhead_pct", overhead, "%");
          ("trace.spans_dropped", float_of_int dropped, "count");
        ])
  end

(* ------------------------------------------------------------------ *)
(* nomad-stream and nomad-durable                                      *)

(* Benign traffic rotates over these users and over the scenario's
   registered tokens ([Scenario.tokens]), never over
   [Bridge.mappings]: on Nomad the first mapping is the duplicate
   operator mapping, and every round trip over it is a token-mapping
   anomaly. *)
let stream_users = 8
let round_trips_per_step = 5
let inject_every = 50

type stream = {
  s_bridge : Bridge.t;
  s_users : Address.t array;
  s_tokens : Scenario.registered_token array;
  mutable s_next : int;
}

let src_chain st = st.s_bridge.Bridge.source.Bridge.chain
let dst_chain st = st.s_bridge.Bridge.target.Bridge.chain

let prepare_stream (b : Scenario.built) =
  let bridge = b.Scenario.bridge in
  let tokens = Array.of_list b.Scenario.tokens in
  gate (Array.length tokens > 0) "stream: scenario has no registered tokens";
  let users =
    Array.init stream_users (fun i ->
        let u = Address.of_seed (Printf.sprintf "pipebench-user-%d" i) in
        Chain.fund bridge.Bridge.source.Bridge.chain u (U256.of_tokens ~decimals:18 1000);
        Chain.fund bridge.Bridge.target.Bridge.chain u (U256.of_tokens ~decimals:18 1000);
        Array.iter
          (fun rt ->
            Scenario.mint_src bridge rt u
              (Scenario.token_units rt.Scenario.rt_spec 1e9))
          tokens;
        u)
  in
  { s_bridge = bridge; s_users = users; s_tokens = tokens; s_next = 0 }

let next_pair st =
  let i = st.s_next in
  st.s_next <- i + 1;
  ( i,
    st.s_users.(i mod Array.length st.s_users),
    st.s_tokens.(i mod Array.length st.s_tokens) )

let round_trip st =
  let i, user, rt = next_pair st in
  let d =
    Bridge.deposit_erc20 st.s_bridge ~user
      ~src_token:rt.Scenario.rt_mapping.Bridge.m_src_token
      ~amount:(Scenario.token_units rt.Scenario.rt_spec (50.0 +. float_of_int (i mod 97)))
      ~beneficiary:user
  in
  gate (d.Bridge.d_deposit_id <> None) "stream: benign deposit reverted";
  ignore (Bridge.complete_deposit st.s_bridge ~deposit:d)

(* One ERC-20 transfer straight to the bridge (Finding 2); returns its
   transaction hash as reports print it. *)
let inject_direct_transfer st =
  let i, user, rt = next_pair st in
  let r =
    Bridge.direct_token_transfer_to_bridge st.s_bridge ~user
      ~src_token:rt.Scenario.rt_mapping.Bridge.m_src_token
      ~amount:(Scenario.token_units rt.Scenario.rt_spec (500.0 +. float_of_int i))
  in
  Facts.hex_of_hash r.Types.r_tx_hash

let head st =
  ( List.length (Chain.all_blocks (src_chain st)),
    List.length (Chain.all_blocks (dst_chain st)) )

(* Round trips of history: transactions on both chains, halved. *)
let history_rtt st =
  (Chain.transaction_count (src_chain st) + Chain.transaction_count (dst_chain st)) / 2

let engine_counters =
  [
    ("engine.delta_tuples_per_poll", "xcw_datalog_delta_tuples");
    ("engine.strata_recomputed_per_poll", "xcw_datalog_strata_recomputed_total");
    ("engine.strata_seminaive_per_poll", "xcw_datalog_strata_seminaive_total");
    ("engine.strata_skipped_per_poll", "xcw_datalog_strata_skipped_total");
    ("engine.retractions_per_poll", "xcw_datalog_retractions_total");
    ("engine.incr_tuples_derived_per_poll", "xcw_datalog_tuples_derived_total");
  ]

let counter_values () =
  List.map (fun (_, series) -> metric_total series) engine_counters

let state_root = ".pipebench_state"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let file_bytes path =
  if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

let dir_bytes dir =
  Array.fold_left
    (fun n f -> n + file_bytes (Filename.concat dir f))
    0 (Sys.readdir dir)

type poll_sample = {
  ps_ms : float;
  ps_rtt : int;  (** round trips of history at the poll *)
  ps_snapshot : bool;  (** the poll wrote a snapshot *)
  ps_incr_ms : float option;  (** traced polls: time in run_incremental *)
  ps_counters : float list option;  (** traced polls: counter deltas *)
}

let nomad_stream ~durable args =
  let name = if durable then "nomad-durable" else "nomad-stream" in
  let build () = Xcw_workload.Nomad.build ~seed:args.seed ~scale:nomad_scale () in
  let prepare b =
    let st = prepare_stream b in
    let clean = input_of ~label:"nomad" ~plugin:Decoder.nomad_plugin ~seed:args.seed b in
    let input =
      if durable then
        {
          clean with
          Detector.i_source_fault = Some Fault.moderate;
          i_target_fault = Some Fault.moderate;
        }
      else clean
    in
    (st, clean, input)
  in
  let dir =
    Filename.concat state_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  let sample_dir = dir ^ "-sample" in
  rm_rf dir;
  rm_rf sample_dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf sample_dir;
      if Sys.file_exists state_root && Sys.readdir state_root = [||] then
        Sys.rmdir state_root)
  @@ fun () ->
  (* Cold start: create the monitor and poll once to the history head. *)
  let cold_start ~dir st input =
    Gc.compact ();
    reference ();
    let t0 = now () in
    let ck = if durable then Some (Monitor.Checkpoint.open_ ~dir ()) else None in
    let mon = Monitor.create ?checkpoint:ck input in
    let sb, tb = head st in
    ignore (Monitor.poll mon ~source_block:sb ~target_block:tb);
    (ck, mon, now () -. t0)
  in
  let default_tracer = Span.default () in
  let tracer = Span.create ~capacity:65536 () in
  let requests0 = ref 0.0 and setup_gc = ref [] and g_cold = ref (gc_mark ()) in
  (* [reps] builds, each followed by a cold start, each pair in a heap
     holding nothing else; the last pair is kept for the loop.  Builds
     vary by +-20% on their own and the first cold start also fills the
     symbol table, so [setup_s] and [catchup_s] are medians of five. *)
  let reps = if args.trace then 1 else 5 in
  let rec take k walls =
    let g_setup = gc_mark () in
    let b, setup_wall = timed_build build in
    setup_gc := gc_phase "setup" g_setup;
    let st, clean, input = prepare b in
    if k < reps then begin
      let ck, _, catchup_wall = cold_start ~dir:sample_dir st input in
      Option.iter Monitor.Checkpoint.close ck;
      rm_rf sample_dir;
      take (k + 1) ((setup_wall, catchup_wall) :: walls)
    end
    else begin
      Client.reset_stats ();
      requests0 := metric_total "xcw_rpc_requests_total";
      g_cold := gc_mark ();
      let ck, mon, catchup_wall = cold_start ~dir st input in
      (st, clean, input, ck, mon, (setup_wall, catchup_wall) :: walls)
    end
  in
  let st, clean, input, ck, mon, cold_walls = take 1 [] in
  let requests0 = !requests0 and setup_gc = !setup_gc in
  (* Under faults the first poll may end behind, and history alerts
     arrive only once synced: finish the catch-up, untimed, before the
     loop so that loop alerts come from loop traffic alone. *)
  let sync_at_head ~what account =
    let extra = ref 0 in
    while not (Monitor.health mon).Monitor.h_synced do
      incr extra;
      gate (!extra <= 200) "%s: monitor still unsynced after 200 polls %s" name what;
      let sb, tb = head st in
      account (Monitor.poll mon ~source_block:sb ~target_block:tb)
    done;
    !extra
  in
  let catchup_extra = sync_at_head ~what:"of catch-up" ignore in
  let catchup_rpc_s = Monitor.rpc_seconds mon in
  let cold_gc = gc_phase "cold" !g_cold in
  let store = Option.map Monitor.Checkpoint.store ck in
  (* Injected transfers: tx hash -> (step appended, alerts seen). *)
  let injected = Hashtbl.create 8 in
  let stray = ref [] in
  let account step alerts =
    List.iter
      (fun (a : Monitor.alert) ->
        let tx = a.Monitor.al_anomaly.Report.a_tx_hash in
        match Hashtbl.find_opt injected tx with
        | Some (appended, seen) ->
            incr seen;
            gate (durable || step = appended)
              "%s: transfer appended at step %d alerted at step %d" name appended step
        | None ->
            stray :=
              Printf.sprintf "%s %s %s" a.Monitor.al_rule
                (Report.class_name a.Monitor.al_anomaly.Report.a_class) tx
              :: !stray)
      alerts
  in
  (* The closed loop: append one step of traffic, then poll to head. *)
  let g_loop = gc_mark () in
  let samples = ref [] and unsynced = ref 0 and step = ref 0 in
  let appended0 = Option.fold ~none:0 ~some:Store.appended_bytes store in
  let t_start = now () in
  while now () -. t_start < args.seconds do
    incr step;
    for _ = 1 to round_trips_per_step do
      round_trip st
    done;
    if !step mod inject_every = 1 then
      Hashtbl.replace injected (inject_direct_transfer st) (!step, ref 0);
    let rtt = history_rtt st in
    let sb, tb = head st in
    let traced = args.trace && !step mod 2 = 0 in
    let before = if traced then Some (counter_values ()) else None in
    if traced then Span.set_default tracer;
    let wal0, app0 =
      match store with
      | Some s -> (Store.wal_bytes s, Store.appended_bytes s)
      | None -> (0, 0)
    in
    reference ();
    let t0 = now () in
    let alerts = Monitor.poll mon ~source_block:sb ~target_block:tb in
    let ms = 1000.0 *. (now () -. t0) in
    Span.set_default default_tracer;
    let snapshot =
      match store with
      | Some s -> Store.wal_bytes s < wal0 + (Store.appended_bytes s - app0)
      | None -> false
    in
    let incr_ms, counters =
      match before with
      | None -> (None, None)
      | Some before ->
          let incr =
            List.fold_left
              (fun acc (r : Span.record) ->
                if r.Span.sp_name = "datalog.run_incremental" then
                  acc +. (1000.0 *. r.Span.sp_duration)
                else acc)
              0.0 (Span.records tracer)
          in
          Span.clear tracer;
          (Some incr, Some (List.map2 ( -. ) (counter_values ()) before))
    in
    if not (Monitor.health mon).Monitor.h_synced then incr unsynced;
    account !step alerts;
    samples :=
      { ps_ms = ms; ps_rtt = rtt; ps_snapshot = snapshot; ps_incr_ms = incr_ms;
        ps_counters = counters }
      :: !samples
  done;
  let samples = List.rev !samples in
  let polls = List.length samples in
  (* A faulty monitor may end behind: poll at the fixed head until it has
     caught up, so the final report covers the final chains. *)
  let extra_polls = sync_at_head ~what:"at the final head" (account !step) in
  let loop_gc = gc_phase "loop" g_loop in
  let rpc_sim_s = Monitor.rpc_seconds mon in
  let requests = metric_total "xcw_rpc_requests_total" -. requests0 in
  let client_stats = Client.stats_snapshot () in
  gate (!stray = []) "%s: %d alerts outside the injected steps, e.g. %s" name
    (List.length !stray)
    (match !stray with s :: _ -> s | [] -> "");
  gate (Hashtbl.length injected > 0) "%s: the loop injected no transfer" name;
  Hashtbl.iter
    (fun tx (_, seen) ->
      gate (!seen = 1) "%s: injected transfer %s alerted %d times" name tx !seen)
    injected;
  let final_sig =
    match Monitor.last_report mon with
    | Some r -> signature r
    | None -> raise (Gate (name ^ ": monitor produced no report"))
  in
  let wal_per_poll =
    match store with
    | Some s ->
        float_of_int (Store.appended_bytes s - appended0) /. float_of_int polls
    | None -> 0.0
  in
  (* Durable restart: close, reopen (snapshot load + WAL tail replay),
     then the next poll must not repeat an alert. *)
  let recovery =
    match ck with
    | None -> None
    | Some ck ->
        let pre_seq = Monitor.alert_seq mon in
        Monitor.Checkpoint.close ck;
        let disk = dir_bytes dir in
        let snapshot_bytes = file_bytes (Filename.concat dir "snapshot.bin") in
        Gc.compact ();
        let t0 = now () in
        let ck2 = Monitor.Checkpoint.open_ ~dir () in
        let mon2 = Monitor.create ~checkpoint:ck2 input in
        let recover_s = now () -. t0 in
        let sb, tb = head st in
        let again = Monitor.poll mon2 ~source_block:sb ~target_block:tb in
        Monitor.Checkpoint.close ck2;
        gate
          (List.for_all (fun (a : Monitor.alert) -> a.Monitor.al_seq > pre_seq) again)
          "%s: the poll after recovery repeated an alert (al_seq <= %d)" name pre_seq;
        Some (recover_s, disk, snapshot_bytes)
  in
  let wall_ms = List.map (fun s -> s.ps_ms) samples in
  let p, p_tail = tail wall_ms in
  let n_injected = Hashtbl.length injected in
  let peak_heap = peak_heap_mb () in
  if not args.trace then begin
    (* The batch oracle over the final chains, timed as [detect_s]. *)
    let walls =
      List.init 5 (fun _ ->
          let r, wall = timed_detect clean in
          gate (signature r.Detector.report = final_sig)
            "%s: monitor's final report differs from Detector.run" name;
          wall)
    in
    let setup_s = median (List.map fst cold_walls) in
    let catchup_s = median (List.map snd cold_walls) in
    let fmt ws = String.concat " " (List.map (Printf.sprintf "%.3f") ws) in
    Printf.printf "samples: setup %s | catchup %s | detect %s\n"
      (fmt (List.rev_map fst cold_walls))
      (fmt (List.rev_map snd cold_walls))
      (fmt walls);
    Printf.printf
      "%s: %d setups, %d polls (tail p%.1f), %d unsynced, %d+%d extra, %d transfers injected, history %d round trips\n"
      name reps polls p !unsynced catchup_extra extra_polls n_injected
      (history_rtt st);
    Option.iter
      (fun (recover_s, disk, snap) ->
        Printf.printf "%s: recover %.4f s, disk %d B (snapshot %d B), WAL %.0f B/poll\n"
          name recover_s disk snap wal_per_poll)
      recovery;
    emit_end_to_end ~attempted:polls
      ~walls:
        [
          ("setup_s", setup_s, "s");
          ("detect_s", median walls, "s");
          ("catchup_s", catchup_s, "s");
          ("poll_p50_ms", median wall_ms, "ms");
          ("poll_p90_ms", p_tail, "ms");
        ]
      ~others:[ ("rpc_sim_s", catchup_rpc_s, "s"); ("peak_heap_mb", peak_heap, "MB") ]
  end
  else begin
    Span.set_default tracer;
    let l = traced_detect ~tracer clean in
    Span.set_default default_tracer;
    gate (signature l.l_report = final_sig)
      "%s: layer-by-layer report differs from the monitor's" name;
    let r, _ = timed_detect clean in
    gate (signature r.Detector.report = final_sig)
      "%s: monitor's final report differs from Detector.run" name;
    let traced = List.filter (fun s -> s.ps_incr_ms <> None) samples in
    let untraced = List.filter (fun s -> s.ps_incr_ms = None) samples in
    let incr s = Option.get s.ps_incr_ms in
    let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
    let counters =
      List.mapi
        (fun i (metric, _) ->
          ( metric,
            mean (List.map (fun s -> List.nth (Option.get s.ps_counters) i) traced),
            "count" ))
        engine_counters
    in
    let snap_ms = List.filter_map (fun s -> if s.ps_snapshot then Some s.ps_ms else None) samples in
    let plain_ms = List.filter_map (fun s -> if s.ps_snapshot then None else Some s.ps_ms) samples in
    let overhead =
      100.0
      *. ((median (List.map (fun s -> s.ps_ms) traced)
          /. median (List.map (fun s -> s.ps_ms) untraced))
         -. 1.0)
    in
    let dropped = Span.dropped tracer in
    gate (dropped = 0) "%s: %d spans dropped" name dropped;
    Printf.printf
      "%s traced: %d polls (%d traced), overhead %+.1f%%, Span.dropped = %d\n"
      name polls (List.length traced) overhead dropped;
    let store_metrics =
      match recovery with
      | None -> []
      | Some (recover_s, disk, snap) ->
          [
            ("store.wal_bytes_per_poll", wal_per_poll, "B");
            ("store.snapshot_bytes", float_of_int snap, "B");
            ( "store.snapshot_poll_extra_ms",
              (if snap_ms = [] then 0.0 else median snap_ms -. median plain_ms),
              "ms" );
            ("store.recover_s", recover_s, "s");
            ("store.disk_mb", float_of_int disk /. 1048576.0, "MB");
          ]
    in
    emit_layers ~attempted:polls
      ([
         ("rpc.requests", requests, "count");
         ("rpc.retries", float_of_int client_stats.Client.s_retries, "count");
         ("rpc.give_ups", float_of_int client_stats.Client.s_give_ups, "count");
         ("rpc.sim_s", rpc_sim_s, "s");
       ]
      @ List.filter
          (fun (n, _, _) -> not (String.length n > 4 && String.sub n 0 4 = "rpc."))
          l.l_metrics
      @ [
          ("engine.incr_ms", median (List.map incr traced), "ms");
          ("monitor.other_ms", median (List.map (fun s -> s.ps_ms -. incr s) traced), "ms");
          ( "monitor.ms_per_krtt",
            ols_slope
              (List.map (fun s -> float_of_int s.ps_rtt /. 1000.0) samples)
              wall_ms,
            "ms/krtt" );
          ("monitor.facts_cached", float_of_int (Monitor.facts_cached mon), "count");
          ("monitor.unsynced_polls", float_of_int !unsynced, "count");
          ("ops.failed_ratio", float_of_int !unsynced /. float_of_int polls, "ratio");
          ("monitor.polls", float_of_int polls, "count");
          ("monitor.history_rtt", float_of_int (history_rtt st), "count");
        ]
      @ counters @ store_metrics @ setup_gc @ cold_gc @ loop_gc
      @ [
          ("trace.overhead_pct", overhead, "%");
          ("trace.spans_dropped", float_of_int dropped, "count");
        ])
  end

(* ------------------------------------------------------------------ *)

let () =
  match parse_args () with
  | exception Arg.Bad msg ->
      prerr_endline msg;
      exit 2
  | args -> (
      try
        match args.workload with
        | "ronin-batch" -> ronin_batch args
        | "nomad-stream" -> nomad_stream ~durable:false args
        | "nomad-durable" -> nomad_stream ~durable:true args
        | w ->
            prerr_endline ("pipebench: unknown workload " ^ w);
            exit 2
      with Gate msg ->
        prerr_endline ("pipebench: correctness gate failed: " ^ msg);
        exit 1)
