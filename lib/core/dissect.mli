(** Dissection of the derived Datalog relations into a classified
    anomaly report — the logic behind the paper's Tables 3 and 4,
    shared by the batch {!Detector} and the streaming {!Monitor}.

    The report has an alerting part (the rule rows, attack rows and
    accounting rows: what a monitor alerts from, costing as much as the
    standing anomalies) and a dataset part (every valid cross-chain
    transaction, priced: costing as much as the history).  {!dissect}
    is their composition. *)

val str_at : Xcw_datalog.Ast.const array -> int -> string
(** Tuple field as a string ([Int]s are rendered). *)

val int_at : Xcw_datalog.Ast.const array -> int -> int
(** Tuple field as an int; raises [Invalid_argument] on strings. *)

(** The alerting part of a report. *)
type alerting = {
  rows : Report.rule_row list;
  attack_rows : Report.attack_row list;
  acc_rows : Report.acc_row list;
}

val alerting :
  config:Config.t ->
  pricing:Pricing.t ->
  first_window_withdrawal_id:int option ->
  decode_errors:Decoder.decode_error list ->
  Xcw_datalog.Engine.db ->
  alerting
(** Classify the anomaly relations of an evaluated database.  Anomaly
    causes are resolved in priority order: finality violation, then
    token-mapping violation, then beneficiary mismatch / unparseable
    linkage, then pre-window false positive, then no-correspondence.
    Rows 4 and 8 count their valid cross-chain transactions without
    building them. *)

val dataset :
  config:Config.t ->
  pricing:Pricing.t ->
  Xcw_datalog.Engine.db ->
  Report.cctx list
(** The valid cross-chain transactions (rules 4 and 8), priced on the
    source-chain token; deposits first.  Runs inside a
    ["dissect.dataset"] span. *)

val dissect :
  label:string ->
  config:Config.t ->
  pricing:Pricing.t ->
  first_window_withdrawal_id:int option ->
  decode_errors:Decoder.decode_error list ->
  db:Xcw_datalog.Engine.db ->
  ?decode_seconds:float ->
  ?eval_seconds:float ->
  ?simulated_rpc_seconds:float ->
  ?total_facts:int ->
  unit ->
  Report.t
(** The full report of an evaluated database: {!alerting} plus
    {!dataset}.  [total_facts] defaults to every tuple in [db]. *)
