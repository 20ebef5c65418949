(** A deterministic in-memory EVM-style blockchain simulator.

    Substitutes for live Ethereum/Moonbeam/Ronin nodes (see DESIGN.md):
    executes transactions against OCaml-implemented contracts, which
    read/write journaled storage, emit ABI-encoded event logs and make
    internal calls — producing receipts, logs and call traces with the
    same information content a real node returns over JSON-RPC.

    Reverts roll back all state changes of the transaction, matching
    EVM semantics.  One block is mined per transaction at the chain's
    current (monotonic, caller-controlled) clock. *)

module U256 = Xcw_uint256.Uint256
module Address = Xcw_evm.Address
module Types = Xcw_evm.Types
module Abi = Xcw_abi.Abi

exception Revert of string
(** Raised by contract code to abort and roll back the transaction. *)

(** The execution environment passed to contract code. *)
type env = {
  chain : t;
  self : Address.t;  (** executing contract *)
  sender : Address.t;  (** [msg.sender] *)
  origin : Address.t;  (** [tx.origin] *)
  value : U256.t;  (** [msg.value] *)
  input : string;  (** calldata *)
  emit : Abi.Event.t -> Abi.Value.t list -> unit;
  call : ?value:U256.t -> Address.t -> string -> unit;
      (** internal call; recorded as a call-trace frame *)
  sload : string -> U256.t;  (** own storage slot, zero if unset *)
  sstore : string -> U256.t -> unit;  (** journaled write *)
  balance_native : Address.t -> U256.t;
  transfer_native : Address.t -> U256.t -> unit;
      (** move native currency out of [self] *)
  block_timestamp : int;
}

and contract = { dispatch : env -> unit; contract_label : string }

and t = {
  chain_id : int;
  chain_name : string;
  mutable finality_seconds : int;
  mutable now : int;
  mutable block_number : int;
  mutable last_block_hash : Types.hash;
  native_balances : (Address.t, U256.t) Hashtbl.t;
  nonces : (Address.t, int) Hashtbl.t;
  storage : (Address.t * string, U256.t) Hashtbl.t;
  contracts : (Address.t, contract) Hashtbl.t;
  receipts : (Types.hash, Types.receipt) Hashtbl.t;
  transactions : (Types.hash, Types.transaction) Hashtbl.t;
  traces : (Types.hash, Types.call_frame) Hashtbl.t;
  mutable blocks : Types.block list;
  mutable tx_order : Types.hash list;
  mutable journal : (unit -> unit) list;
  mutable pending_logs : Types.log list;
  mutable next_log_index : int;
}

val create :
  chain_id:int -> name:string -> finality_seconds:int -> genesis_time:int -> t

(** {1 Clock (monotonic)} *)

val set_time : t -> int -> unit
(** Raises [Invalid_argument] when moving backwards. *)

val advance_time : t -> int -> unit
val now : t -> int

(** {1 Accounts} *)

val native_balance : t -> Address.t -> U256.t

val fund : t -> Address.t -> U256.t -> unit
(** Credit an account outside any transaction (genesis funding). *)

val nonce : t -> Address.t -> int

(** {1 Storage and contracts} *)

val sload : t -> Address.t -> string -> U256.t
val sstore : t -> Address.t -> string -> U256.t -> unit
val is_contract : t -> Address.t -> bool
val contract_label : t -> Address.t -> string option
val register_contract : t -> Address.t -> contract -> unit

(** {1 Transactions} *)

val submit_tx :
  ?value:U256.t ->
  ?input:string ->
  ?gas_price:U256.t ->
  ?gas_limit:int ->
  t ->
  from_:Address.t ->
  to_:Address.t ->
  unit ->
  Types.receipt
(** Execute a transaction and mine a block for it at the current time.
    Reverted transactions roll back all state but are still recorded
    (status [Reverted], no logs). *)

val deploy : ?label:string -> t -> from_:Address.t -> (env -> unit) -> Address.t
(** Deploy a contract from an EOA; the address follows the mainnet
    creation rule.  Recorded as a creation transaction. *)

(** {1 Queries (consumed by the RPC facade)} *)

val receipt : t -> Types.hash -> Types.receipt option
val transaction : t -> Types.hash -> Types.transaction option
val trace : t -> Types.hash -> Types.call_frame option

val all_receipts : t -> Types.receipt list
(** Chain order, oldest first. *)

val receipts_since :
  t -> since:Types.hash list -> Types.receipt list * Types.hash list
(** [receipts_since t ~since] is the receipts appended since [t.tx_order]
    was [since] (oldest first) and the current [t.tx_order].  Start from
    [~since:[]]; the cost follows the new receipts, not the history.
    Raises [Invalid_argument] if [since] is not an earlier [tx_order]. *)

val all_blocks : t -> Types.block list
val transaction_count : t -> int
