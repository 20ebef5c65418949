module Ast = Xcw_datalog.Ast

type t = {
  mutable sm_of_proc : int array;
      (* process symbol id -> store id + 1; 0 = not yet in this store *)
  mutable sm_back : int array; (* store id -> process packed cell *)
  mutable sm_n : int;
  mutable sm_fresh_rev : int list; (* store ids to announce, newest first *)
}

let create () =
  {
    sm_of_proc = Array.make 64 0;
    sm_back = Array.make 64 0;
    sm_n = 0;
    sm_fresh_rev = [];
  }

let grown a need =
  if need < Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* An odd packed cell carries its process symbol id above the tag bit. *)
let proc_id packed = packed asr 1

let assign t packed ~fresh =
  let id = t.sm_n in
  t.sm_back <- grown t.sm_back (id + 1);
  t.sm_back.(id) <- packed;
  let p = proc_id packed in
  t.sm_of_proc <- grown t.sm_of_proc (p + 1);
  t.sm_of_proc.(p) <- id + 1;
  t.sm_n <- id + 1;
  if fresh then t.sm_fresh_rev <- id :: t.sm_fresh_rev;
  id

(* The store id is found through the cell's process symbol id: no
   string is looked up, hashed or compared on the encode path. *)
let encode_cell t packed =
  if Ast.packed_is_int packed then packed
  else
    let p = proc_id packed in
    let known =
      if p < Array.length t.sm_of_proc then t.sm_of_proc.(p) else 0
    in
    let id = if known > 0 then known - 1 else assign t packed ~fresh:true in
    (id lsl 1) lor 1

let decode_cell t stored =
  if stored land 1 = 0 then stored
  else
    let id = stored lsr 1 in
    if id >= t.sm_n then
      raise (Codec.R.Corrupt (Printf.sprintf "symbol id %d out of range" id))
    else t.sm_back.(id)

let register t s = ignore (assign t (Ast.pack_string s) ~fresh:false)

let take_fresh t =
  let fresh =
    List.rev_map (fun id -> Ast.packed_to_string t.sm_back.(id)) t.sm_fresh_rev
  in
  t.sm_fresh_rev <- [];
  fresh

let size t = t.sm_n
let dump t = List.init t.sm_n (fun id -> Ast.packed_to_string t.sm_back.(id))
