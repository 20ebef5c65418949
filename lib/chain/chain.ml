(** A deterministic in-memory EVM-style blockchain simulator.

    This is the substrate substituting for live Ethereum / Moonbeam /
    Ronin nodes (see DESIGN.md).  It executes transactions against
    OCaml-implemented contracts, which read and write journaled storage,
    emit ABI-encoded event logs, and make internal calls — producing
    receipts, logs and call traces with the same information content a
    real node returns over JSON-RPC.

    Contracts are OCaml values: a dispatch function receiving an
    execution environment.  Reverts roll back all state changes of the
    transaction (a write journal is kept per transaction), matching EVM
    semantics.  One block is mined per transaction; the workload
    generator controls the clock, so cross-chain timing (finality,
    fraud-proof windows) is fully scriptable. *)

module U256 = Xcw_uint256.Uint256
module Address = Xcw_evm.Address
module Types = Xcw_evm.Types
module Abi = Xcw_abi.Abi
module Keccak = Xcw_keccak.Keccak

exception Revert of string

type env = {
  chain : t;
  self : Address.t;  (** executing contract (address of code being run) *)
  sender : Address.t;  (** [msg.sender]: immediate caller *)
  origin : Address.t;  (** [tx.origin]: transaction signer *)
  value : U256.t;  (** [msg.value] *)
  input : string;  (** calldata *)
  emit : Abi.Event.t -> Abi.Value.t list -> unit;
  call : ?value:U256.t -> Address.t -> string -> unit;
      (** internal call: dispatches the callee contract and records a
          call-trace frame *)
  sload : string -> U256.t;  (** own storage slot (zero if unset) *)
  sstore : string -> U256.t -> unit;  (** journaled storage write *)
  balance_native : Address.t -> U256.t;
  transfer_native : Address.t -> U256.t -> unit;
      (** move native currency from [self] to the given address *)
  block_timestamp : int;
}

and contract = { dispatch : env -> unit; contract_label : string }

and t = {
  chain_id : int;
  chain_name : string;
  mutable finality_seconds : int;
  mutable now : int;  (** current unix time; advances monotonically *)
  mutable block_number : int;
  mutable last_block_hash : Types.hash;
  native_balances : (Address.t, U256.t) Hashtbl.t;
  nonces : (Address.t, int) Hashtbl.t;
  storage : (Address.t * string, U256.t) Hashtbl.t;
  contracts : (Address.t, contract) Hashtbl.t;
  receipts : (Types.hash, Types.receipt) Hashtbl.t;
  transactions : (Types.hash, Types.transaction) Hashtbl.t;
  traces : (Types.hash, Types.call_frame) Hashtbl.t;
  mutable blocks : Types.block list;  (** newest first *)
  mutable tx_order : Types.hash list;  (** newest first *)
  (* Per-transaction execution state. *)
  mutable journal : (unit -> unit) list;  (** undo closures, newest first *)
  mutable pending_logs : Types.log list;  (** reversed *)
  mutable next_log_index : int;
}

let create ~chain_id ~name ~finality_seconds ~genesis_time =
  {
    chain_id;
    chain_name = name;
    finality_seconds;
    now = genesis_time;
    block_number = 0;
    last_block_hash = Keccak.digest (Printf.sprintf "genesis:%d:%s" chain_id name);
    native_balances = Hashtbl.create 1024;
    nonces = Hashtbl.create 1024;
    storage = Hashtbl.create 4096;
    contracts = Hashtbl.create 64;
    receipts = Hashtbl.create 4096;
    transactions = Hashtbl.create 4096;
    traces = Hashtbl.create 4096;
    blocks = [];
    tx_order = [];
    journal = [];
    pending_logs = [];
    next_log_index = 0;
  }

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let set_time t ts =
  if ts < t.now then
    invalid_arg
      (Printf.sprintf "Chain.set_time: clock must be monotonic (%d < %d)" ts t.now);
  t.now <- ts

let advance_time t seconds =
  if seconds < 0 then invalid_arg "Chain.advance_time: negative";
  t.now <- t.now + seconds

let now t = t.now

(* ------------------------------------------------------------------ *)
(* Accounts and balances                                               *)

let native_balance t addr =
  Option.value (Hashtbl.find_opt t.native_balances addr) ~default:U256.zero

let journaled_set_balance t addr value =
  let old = Hashtbl.find_opt t.native_balances addr in
  t.journal <-
    (fun () ->
      match old with
      | Some v -> Hashtbl.replace t.native_balances addr v
      | None -> Hashtbl.remove t.native_balances addr)
    :: t.journal;
  Hashtbl.replace t.native_balances addr value

(** Credit an account outside any transaction (genesis funding). *)
let fund t addr amount =
  Hashtbl.replace t.native_balances addr (U256.add_exn (native_balance t addr) amount)

let nonce t addr = Option.value (Hashtbl.find_opt t.nonces addr) ~default:0

let bump_nonce t addr = Hashtbl.replace t.nonces addr (nonce t addr + 1)

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)

let sload t contract key =
  Option.value (Hashtbl.find_opt t.storage (contract, key)) ~default:U256.zero

let sstore t contract key value =
  let slot = (contract, key) in
  let old = Hashtbl.find_opt t.storage slot in
  t.journal <-
    (fun () ->
      match old with
      | Some v -> Hashtbl.replace t.storage slot v
      | None -> Hashtbl.remove t.storage slot)
    :: t.journal;
  if U256.is_zero value then Hashtbl.remove t.storage slot
  else Hashtbl.replace t.storage slot value

(* ------------------------------------------------------------------ *)
(* Contracts                                                           *)

let is_contract t addr = Hashtbl.mem t.contracts addr

let contract_label t addr =
  match Hashtbl.find_opt t.contracts addr with
  | Some c -> Some c.contract_label
  | None -> None

let register_contract t addr contract =
  if Hashtbl.mem t.contracts addr then
    invalid_arg "Chain.register_contract: address already has code";
  Hashtbl.replace t.contracts addr contract

(* ------------------------------------------------------------------ *)
(* Transaction execution                                               *)

let native_transfer_exn t ~from_ ~to_ amount =
  if not (U256.is_zero amount) then begin
    let from_bal = native_balance t from_ in
    if U256.lt from_bal amount then raise (Revert "insufficient native balance");
    journaled_set_balance t from_ (U256.sub_exn from_bal amount);
    journaled_set_balance t to_ (U256.add_exn (native_balance t to_) amount)
  end

let tx_hash_of t (tx_from : Address.t) nonce input value =
  Keccak.digest
    (Xcw_rlp.Rlp.(
       encode
         (List
            [
              String tx_from;
              of_int nonce;
              of_uint256 value;
              String input;
              of_int t.chain_id;
              of_int t.now;
            ])))

(* Execute [dispatch] for a call to [to_]; recursively builds the call
   trace. *)
let rec execute_call t ~origin ~sender ~self ~value ~input ~depth :
    Types.call_frame =
  (* Value moves first, like the EVM does for CALL. *)
  native_transfer_exn t ~from_:sender ~to_:self value;
  let subcalls = ref [] in
  (match Hashtbl.find_opt t.contracts self with
  | None -> () (* plain value transfer to an EOA *)
  | Some c ->
      let env =
        {
          chain = t;
          self;
          sender;
          origin;
          value;
          input;
          emit =
            (fun event values ->
              let topics, data = Abi.Event.encode_log event values in
              let log =
                {
                  Types.log_address = self;
                  topics;
                  data;
                  log_index = t.next_log_index;
                }
              in
              t.next_log_index <- t.next_log_index + 1;
              t.pending_logs <- log :: t.pending_logs);
          call =
            (fun ?(value = U256.zero) callee input ->
              let frame =
                execute_call t ~origin ~sender:self ~self:callee ~value ~input
                  ~depth:(depth + 1)
              in
              subcalls := frame :: !subcalls);
          sload = (fun key -> sload t self key);
          sstore = (fun key v -> sstore t self key v);
          balance_native = (fun a -> native_balance t a);
          transfer_native =
            (fun to_ amount -> native_transfer_exn t ~from_:self ~to_ amount);
          block_timestamp = t.now;
        }
      in
      c.dispatch env);
  {
    Types.call_type = Types.Call;
    call_from = sender;
    call_to = self;
    call_value = value;
    call_input = input;
    call_depth = depth;
    subcalls = List.rev !subcalls;
  }

let mine_block t tx_hash =
  t.block_number <- t.block_number + 1;
  let b_hash =
    (* Chained over the parent hash AND the block's transaction so the
       chain head commits to the full history. *)
    Keccak.digest
      (Printf.sprintf "%d:%d:%s:%s" t.chain_id t.block_number
         (Xcw_util.Hex.encode t.last_block_hash)
         (Xcw_util.Hex.encode tx_hash))
  in
  let block =
    {
      Types.b_number = t.block_number;
      b_timestamp = t.now;
      b_parent_hash = t.last_block_hash;
      b_hash;
      b_transactions = [ tx_hash ];
    }
  in
  t.last_block_hash <- b_hash;
  t.blocks <- block :: t.blocks;
  block

(** Submit and execute a transaction.  One block is mined per
    transaction at the chain's current time.  Reverted transactions roll
    back all state changes but are still recorded on chain (with status
    [Reverted] and no logs), as on real networks. *)
let submit_tx ?(value = U256.zero) ?(input = "") ?(gas_price = U256.zero)
    ?(gas_limit = 1_000_000) t ~from_ ~to_ () : Types.receipt =
  let sender_nonce = nonce t from_ in
  let tx_hash = tx_hash_of t from_ sender_nonce input value in
  bump_nonce t from_;
  t.journal <- [];
  t.pending_logs <- [];
  t.next_log_index <- 0;
  let status, trace =
    try
      let frame =
        execute_call t ~origin:from_ ~sender:from_ ~self:to_ ~value ~input
          ~depth:0
      in
      (Types.Success, Some frame)
    with Revert _ ->
      (* Unwind every journaled mutation of this transaction. *)
      List.iter (fun undo -> undo ()) t.journal;
      t.pending_logs <- [];
      (Types.Reverted, None)
  in
  let logs = List.rev t.pending_logs in
  t.journal <- [];
  t.pending_logs <- [];
  let gas_used = 21_000 + (List.length logs * 1_500) + (String.length input * 8) in
  let gas_used = min gas_used gas_limit in
  (* Charge gas after execution; fees are burned for simplicity. *)
  let fee = U256.mul gas_price (U256.of_int gas_used) in
  if not (U256.is_zero fee) then begin
    let bal = native_balance t from_ in
    let charged = if U256.lt bal fee then bal else fee in
    Hashtbl.replace t.native_balances from_ (U256.sub bal charged)
  end;
  let block = mine_block t tx_hash in
  let tx =
    {
      Types.tx_hash;
      tx_nonce = sender_nonce;
      tx_from = from_;
      tx_to = Some to_;
      tx_value = value;
      tx_input = input;
      tx_gas_price = gas_price;
      tx_gas_limit = gas_limit;
    }
  in
  let receipt =
    {
      Types.r_tx_hash = tx_hash;
      r_block_number = block.Types.b_number;
      r_block_timestamp = block.Types.b_timestamp;
      r_tx_index = 0;
      r_from = from_;
      r_to = Some to_;
      r_status = status;
      r_gas_used = gas_used;
      r_logs = logs;
      r_contract_created = None;
    }
  in
  Hashtbl.replace t.transactions tx_hash tx;
  Hashtbl.replace t.receipts tx_hash receipt;
  Option.iter (fun tr -> Hashtbl.replace t.traces tx_hash tr) trace;
  t.tx_order <- tx_hash :: t.tx_order;
  receipt

(** Deploy a contract from an EOA; returns its address.  Recorded as a
    creation transaction. *)
let deploy ?(label = "contract") t ~from_ (dispatch : env -> unit) : Address.t
    =
  let sender_nonce = nonce t from_ in
  let addr = Address.contract_address ~sender:from_ ~nonce:sender_nonce in
  let tx_hash = tx_hash_of t from_ sender_nonce ("create:" ^ label) U256.zero in
  bump_nonce t from_;
  register_contract t addr { dispatch; contract_label = label };
  let block = mine_block t tx_hash in
  let tx =
    {
      Types.tx_hash;
      tx_nonce = sender_nonce;
      tx_from = from_;
      tx_to = None;
      tx_value = U256.zero;
      tx_input = "";
      tx_gas_price = U256.zero;
      tx_gas_limit = 3_000_000;
    }
  in
  let receipt =
    {
      Types.r_tx_hash = tx_hash;
      r_block_number = block.Types.b_number;
      r_block_timestamp = block.Types.b_timestamp;
      r_tx_index = 0;
      r_from = from_;
      r_to = None;
      r_status = Types.Success;
      r_gas_used = 500_000;
      r_logs = [];
      r_contract_created = Some addr;
    }
  in
  Hashtbl.replace t.transactions tx_hash tx;
  Hashtbl.replace t.receipts tx_hash receipt;
  t.tx_order <- tx_hash :: t.tx_order;
  addr

(* ------------------------------------------------------------------ *)
(* Queries (consumed by the RPC facade)                                *)

let receipt t h = Hashtbl.find_opt t.receipts h
let transaction t h = Hashtbl.find_opt t.transactions h
let trace t h = Hashtbl.find_opt t.traces h

(** All receipts in chain order (oldest first). *)
let all_receipts t =
  List.rev_map (fun h -> Hashtbl.find t.receipts h) t.tx_order

(** Receipts appended since [tx_order] was [since] (a value it held
    earlier), oldest first, with the current [tx_order] to pass next
    time.  The walk stops at [since], so it costs the new transactions
    only. *)
let receipts_since t ~since =
  let now = t.tx_order in
  let rec newer acc l =
    if l == since then acc
    else
      match l with
      | [] -> invalid_arg "Chain.receipts_since: not an earlier tx_order"
      | h :: tl -> newer (Hashtbl.find t.receipts h :: acc) tl
  in
  (newer [] now, now)

let all_blocks t = List.rev t.blocks

let transaction_count t = List.length t.tx_order
