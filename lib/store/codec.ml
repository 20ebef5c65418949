(* IEEE CRC-32 on native ints, sliced by 8: [crc_tables.(k).(b)] is
   the register contribution of byte [b] followed by [k] zero bytes, so
   one step folds eight bytes with eight table loads.  The register
   never leaves the low 32 bits of an OCaml int: nothing is boxed. *)
let crc_tables =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let tables = Array.make 8 t0 in
  for k = 1 to 7 do
    let prev = tables.(k - 1) in
    tables.(k) <- Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xFF)) prev
  done;
  tables

(* Fold bytes [off, off + len) of [s] into a pre-inverted register. *)
let crc_update c s ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length s then
    invalid_arg "Codec.crc32: range out of bounds";
  let t k i = Array.unsafe_get (Array.unsafe_get crc_tables k) i in
  let word i = Int32.to_int (Bytes.get_int32_le s i) land 0xFFFFFFFF in
  let c = ref c and i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let lo = !c lxor word !i and hi = word (!i + 4) in
    c :=
      t 7 (lo land 0xFF)
      lxor t 6 ((lo lsr 8) land 0xFF)
      lxor t 5 ((lo lsr 16) land 0xFF)
      lxor t 4 (lo lsr 24)
      lxor t 3 (hi land 0xFF)
      lxor t 2 ((hi lsr 8) land 0xFF)
      lxor t 1 ((hi lsr 16) land 0xFF)
      lxor t 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c :=
      t 0 ((!c lxor Char.code (Bytes.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let crc_finish c = Int32.of_int (c lxor 0xFFFFFFFF)

let crc32 ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  crc_finish (crc_update 0xFFFFFFFF (Bytes.unsafe_of_string s) ~off ~len)

(* Buffers expose their bytes only by copy, so they are streamed through
   one bounded scratch block rather than flattened into a string. *)
let crc32_buffers parts =
  let total = List.fold_left (fun n b -> n + Buffer.length b) 0 parts in
  let scratch = Bytes.create (min total 65536) in
  let step = Bytes.length scratch in
  List.fold_left
    (fun c b ->
      let n = Buffer.length b in
      let c = ref c and pos = ref 0 in
      while !pos < n do
        let k = min step (n - !pos) in
        Buffer.blit b !pos scratch 0 k;
        c := crc_update !c scratch ~off:0 ~len:k;
        pos := !pos + k
      done;
      !c)
    0xFFFFFFFF parts
  |> crc_finish

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let int b n = Buffer.add_int64_le b (Int64.of_int n)
  let bool b v = Buffer.add_char b (if v then '\001' else '\000')
  let float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

  let str b s =
    int b (String.length s);
    Buffer.add_string b s

  let opt_str b = function
    | None -> bool b false
    | Some s ->
        bool b true;
        str b s

  let list b f xs =
    int b (List.length xs);
    List.iter f xs
end

module R = struct
  type t = { src : string; mutable pos : int }

  exception Corrupt of string

  let of_string src = { src; pos = 0 }

  let need r n what =
    if r.pos + n > String.length r.src then
      raise (Corrupt (Printf.sprintf "truncated %s at offset %d" what r.pos))

  let int r =
    need r 8 "int";
    let v = Int64.to_int (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let bool r =
    need r 1 "bool";
    let c = r.src.[r.pos] in
    r.pos <- r.pos + 1;
    c <> '\000'

  let float r =
    need r 8 "float";
    let v = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let str r =
    let n = int r in
    if n < 0 then raise (Corrupt "negative string length");
    need r n "string";
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let opt_str r = if bool r then Some (str r) else None

  let list r f =
    let n = int r in
    if n < 0 then raise (Corrupt "negative list length");
    List.init n (fun _ -> f ())

  let at_end r = r.pos = String.length r.src
end
