(** 256-bit unsigned integer arithmetic.

    Token amounts on EVM chains are [uint256]; OCaml has no native type
    wide enough and zarith is not available in this environment, so this
    module implements modular 2^256 arithmetic over four 64-bit limbs
    (little-endian: [limb.(0)] is least significant).

    Values are immutable.  All operations wrap modulo 2^256, matching
    EVM semantics; [add_exn]/[sub_exn] raise on overflow/underflow for
    callers that want conservation checks (the bridge simulator). *)

type t = { l0 : int64; l1 : int64; l2 : int64; l3 : int64 }

exception Overflow
exception Underflow

let zero = { l0 = 0L; l1 = 0L; l2 = 0L; l3 = 0L }
let one = { l0 = 1L; l1 = 0L; l2 = 0L; l3 = 0L }

let max_int_u256 =
  { l0 = -1L; l1 = -1L; l2 = -1L; l3 = -1L }

let limb t i =
  match i with
  | 0 -> t.l0
  | 1 -> t.l1
  | 2 -> t.l2
  | 3 -> t.l3
  | _ -> invalid_arg "Uint256.limb"

let make l0 l1 l2 l3 = { l0; l1; l2; l3 }

let equal a b = a.l0 = b.l0 && a.l1 = b.l1 && a.l2 = b.l2 && a.l3 = b.l3

let is_zero t = equal t zero

(* Unsigned comparison of int64 values. *)
let ucmp64 (a : int64) (b : int64) =
  let flip x = Int64.logxor x Int64.min_int in
  Int64.compare (flip a) (flip b)

let compare a b =
  let c = ucmp64 a.l3 b.l3 in
  if c <> 0 then c
  else
    let c = ucmp64 a.l2 b.l2 in
    if c <> 0 then c
    else
      let c = ucmp64 a.l1 b.l1 in
      if c <> 0 then c else ucmp64 a.l0 b.l0

let lt a b = compare a b < 0
let le a b = compare a b <= 0
let gt a b = compare a b > 0
let ge a b = compare a b >= 0

let of_int i =
  if i < 0 then invalid_arg "Uint256.of_int: negative";
  { zero with l0 = Int64.of_int i }

let of_int64 i =
  if Int64.compare i 0L < 0 then invalid_arg "Uint256.of_int64: negative";
  { zero with l0 = i }

(** [to_int t] raises [Overflow] if the value does not fit an OCaml int. *)
let to_int t =
  if t.l1 <> 0L || t.l2 <> 0L || t.l3 <> 0L then raise Overflow;
  if ucmp64 t.l0 (Int64.of_int max_int) > 0 then raise Overflow;
  Int64.to_int t.l0

let to_int_opt t = try Some (to_int t) with Overflow -> None

(* Add with carry: returns (sum, carry). *)
let addc (a : int64) (b : int64) (carry : int64) =
  let s = Int64.add (Int64.add a b) carry in
  (* Carry occurred iff s < a (unsigned) when carry=0, or s <= a when carry=1. *)
  let c =
    if carry = 0L then if ucmp64 s a < 0 then 1L else 0L
    else if ucmp64 s a <= 0 then 1L
    else 0L
  in
  (s, c)

(* Subtract with borrow: returns (diff, borrow). *)
let subb (a : int64) (b : int64) (borrow : int64) =
  let d = Int64.sub (Int64.sub a b) borrow in
  let bo =
    if borrow = 0L then if ucmp64 a b < 0 then 1L else 0L
    else if ucmp64 a b <= 0 then 1L
    else 0L
  in
  (d, bo)

let add_with_carry a b =
  let s0, c0 = addc a.l0 b.l0 0L in
  let s1, c1 = addc a.l1 b.l1 c0 in
  let s2, c2 = addc a.l2 b.l2 c1 in
  let s3, c3 = addc a.l3 b.l3 c2 in
  ({ l0 = s0; l1 = s1; l2 = s2; l3 = s3 }, c3 <> 0L)

(** Wrapping addition modulo 2^256. *)
let add a b = fst (add_with_carry a b)

(** Addition that raises [Overflow] instead of wrapping. *)
let add_exn a b =
  let s, carry = add_with_carry a b in
  if carry then raise Overflow else s

let sub_with_borrow a b =
  let d0, b0 = subb a.l0 b.l0 0L in
  let d1, b1 = subb a.l1 b.l1 b0 in
  let d2, b2 = subb a.l2 b.l2 b1 in
  let d3, b3 = subb a.l3 b.l3 b2 in
  ({ l0 = d0; l1 = d1; l2 = d2; l3 = d3 }, b3 <> 0L)

(** Wrapping subtraction modulo 2^256. *)
let sub a b = fst (sub_with_borrow a b)

(** Subtraction that raises [Underflow] when [b > a]. *)
let sub_exn a b =
  let d, borrow = sub_with_borrow a b in
  if borrow then raise Underflow else d

(* 64x64 -> 128 multiplication, as (lo, hi). *)
let mul64 (a : int64) (b : int64) =
  let mask32 = 0xFFFFFFFFL in
  let al = Int64.logand a mask32 and ah = Int64.shift_right_logical a 32 in
  let bl = Int64.logand b mask32 and bh = Int64.shift_right_logical b 32 in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let mid = Int64.add (Int64.add lh hl) (Int64.shift_right_logical ll 32) in
  (* mid may wrap; detect carry into the high word. *)
  let carry_mid = if ucmp64 mid lh < 0 then 0x100000000L else 0L in
  let lo = Int64.logor (Int64.shift_left mid 32) (Int64.logand ll mask32) in
  let hi =
    Int64.add (Int64.add hh (Int64.shift_right_logical mid 32)) carry_mid
  in
  (lo, hi)

(* Full 512-bit schoolbook product as 8 limbs. *)
let mul_full a b =
  let a_limbs = [| a.l0; a.l1; a.l2; a.l3 |] in
  let b_limbs = [| b.l0; b.l1; b.l2; b.l3 |] in
  let res = Array.make 8 0L in
  for i = 0 to 3 do
    let carry = ref 0L in
    for j = 0 to 3 do
      if i + j < 8 then begin
        let lo, hi = mul64 a_limbs.(i) b_limbs.(j) in
        let s1, c1 = addc res.(i + j) lo 0L in
        let s2, c2 = addc s1 !carry 0L in
        res.(i + j) <- s2;
        carry := Int64.add (Int64.add hi c1) c2
      end
    done;
    if i + 4 < 8 then begin
      let s, c = addc res.(i + 4) !carry 0L in
      res.(i + 4) <- s;
      (* propagate any further carry *)
      let k = ref (i + 5) in
      let c = ref c in
      while !c <> 0L && !k < 8 do
        let s', c' = addc res.(!k) 0L !c in
        res.(!k) <- s';
        c := c';
        incr k
      done
    end
  done;
  res

(** Wrapping multiplication modulo 2^256. *)
let mul a b =
  let res = mul_full a b in
  { l0 = res.(0); l1 = res.(1); l2 = res.(2); l3 = res.(3) }

(** Multiplication that raises [Overflow] if the mathematical product
    exceeds 2^256 - 1. *)
let mul_exn a b =
  let res = mul_full a b in
  if res.(4) <> 0L || res.(5) <> 0L || res.(6) <> 0L || res.(7) <> 0L then
    raise Overflow;
  { l0 = res.(0); l1 = res.(1); l2 = res.(2); l3 = res.(3) }

let shift_left t n =
  if n < 0 || n > 255 then invalid_arg "Uint256.shift_left";
  if n = 0 then t
  else begin
    let limbs = [| t.l0; t.l1; t.l2; t.l3 |] in
    let out = Array.make 4 0L in
    let limb_shift = n / 64 and bit_shift = n mod 64 in
    for i = 3 downto 0 do
      let src = i - limb_shift in
      if src >= 0 then begin
        out.(i) <- Int64.shift_left limbs.(src) bit_shift;
        if bit_shift > 0 && src - 1 >= 0 then
          out.(i) <-
            Int64.logor out.(i)
              (Int64.shift_right_logical limbs.(src - 1) (64 - bit_shift))
      end
    done;
    { l0 = out.(0); l1 = out.(1); l2 = out.(2); l3 = out.(3) }
  end

let shift_right t n =
  if n < 0 || n > 255 then invalid_arg "Uint256.shift_right";
  if n = 0 then t
  else begin
    let limbs = [| t.l0; t.l1; t.l2; t.l3 |] in
    let out = Array.make 4 0L in
    let limb_shift = n / 64 and bit_shift = n mod 64 in
    for i = 0 to 3 do
      let src = i + limb_shift in
      if src <= 3 then begin
        out.(i) <- Int64.shift_right_logical limbs.(src) bit_shift;
        if bit_shift > 0 && src + 1 <= 3 then
          out.(i) <-
            Int64.logor out.(i)
              (Int64.shift_left limbs.(src + 1) (64 - bit_shift))
      end
    done;
    { l0 = out.(0); l1 = out.(1); l2 = out.(2); l3 = out.(3) }
  end

let logor a b =
  {
    l0 = Int64.logor a.l0 b.l0;
    l1 = Int64.logor a.l1 b.l1;
    l2 = Int64.logor a.l2 b.l2;
    l3 = Int64.logor a.l3 b.l3;
  }

let logand a b =
  {
    l0 = Int64.logand a.l0 b.l0;
    l1 = Int64.logand a.l1 b.l1;
    l2 = Int64.logand a.l2 b.l2;
    l3 = Int64.logand a.l3 b.l3;
  }

let bit t n =
  if n < 0 || n > 255 then invalid_arg "Uint256.bit";
  let l = limb t (n / 64) in
  Int64.logand (Int64.shift_right_logical l (n mod 64)) 1L = 1L

let set_bit t n =
  if n < 0 || n > 255 then invalid_arg "Uint256.set_bit";
  logor t (shift_left one n)

let bit_length t =
  let rec hi_limb i = if i < 0 then -1 else if limb t i <> 0L then i else hi_limb (i - 1) in
  match hi_limb 3 with
  | -1 -> 0
  | i ->
      let l = limb t i in
      let rec msb j = if Int64.shift_right_logical l j <> 0L then j + 1 else msb (j - 1) in
      (i * 64) + msb 63

(** [divmod a b] is [(a / b, a mod b)].  Raises [Division_by_zero] when
    [b] is zero.  Bitwise long division: 256 iterations maximum. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if lt a b then (zero, a)
  else begin
    let q = ref zero and r = ref zero in
    for i = bit_length a - 1 downto 0 do
      r := shift_left !r 1;
      if bit a i then r := logor !r one;
      if ge !r b then begin
        r := sub !r b;
        q := set_bit !q i
      end
    done;
    (!q, !r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ten = of_int 10

(* [t * m + c] for [m, c < 2^32], raising [Overflow] past 2^256 - 1:
   schoolbook over 32-bit half-limbs, so every partial product fits an
   int64 without a 128-bit multiply. *)
let mul_small_add_exn t m c =
  let m = Int64.of_int m and mask32 = 0xFFFFFFFFL in
  let carry = ref (Int64.of_int c) in
  let step l =
    let lo = Int64.add (Int64.mul (Int64.logand l mask32) m) !carry in
    let hi =
      Int64.add
        (Int64.mul (Int64.shift_right_logical l 32) m)
        (Int64.shift_right_logical lo 32)
    in
    carry := Int64.shift_right_logical hi 32;
    Int64.logor (Int64.shift_left hi 32) (Int64.logand lo mask32)
  in
  let l0 = step t.l0 in
  let l1 = step t.l1 in
  let l2 = step t.l2 in
  let l3 = step t.l3 in
  if !carry <> 0L then raise Overflow;
  { l0; l1; l2; l3 }

(* Amount strings are priced on every report, so digits are consumed
   nine at a time (10^9 < 2^32): one small multiply-add per chunk
   instead of a full 256x256-bit product per digit.  Every prefix value
   is at most the final one, so overflow is raised exactly when the
   digit-at-a-time parse would raise it. *)
let of_decimal_string s =
  if s = "" then invalid_arg "Uint256.of_decimal_string: empty";
  let acc = ref zero and chunk = ref 0 and scale = ref 1 in
  let flush () =
    if !scale > 1 then begin
      acc := mul_small_add_exn !acc !scale !chunk;
      chunk := 0;
      scale := 1
    end
  in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
          chunk := (!chunk * 10) + (Char.code c - Char.code '0');
          scale := !scale * 10;
          if !scale = 1_000_000_000 then flush ()
      | '_' -> ()
      | _ ->
          (* The digits before [c] overflow first, as they would
             digit by digit. *)
          flush ();
          invalid_arg "Uint256.of_decimal_string: non-digit")
    s;
  flush ();
  !acc

(* Decimal rendering is a fact-load hot path: every token amount
   becomes a Datalog string cell through here.  Digit-at-a-time
   [divmod v ten] costs a full 256-bit long division per digit; instead
   divide by 10^9 over eight 32-bit half-limbs (the intermediate
   [rem << 32 | half] stays under 2^62, so plain [Int64.div] works),
   peeling nine digits per pass — at most nine short divisions for a
   full-width value. *)
let to_decimal_string t =
  if t.l1 = 0L && t.l2 = 0L && t.l3 = 0L && Int64.compare t.l0 0L >= 0 then
    Int64.to_string t.l0
  else begin
    let d = Array.make 8 0L in
    let put i l =
      d.(2 * i) <- Int64.logand l 0xFFFFFFFFL;
      d.((2 * i) + 1) <- Int64.shift_right_logical l 32
    in
    put 0 t.l0;
    put 1 t.l1;
    put 2 t.l2;
    put 3 t.l3;
    let base = 1_000_000_000L in
    let hi = ref 7 in
    while !hi > 0 && d.(!hi) = 0L do
      decr hi
    done;
    let groups = ref [] in
    while !hi > 0 || d.(0) <> 0L do
      let rem = ref 0L in
      for i = !hi downto 0 do
        let cur = Int64.logor (Int64.shift_left !rem 32) d.(i) in
        d.(i) <- Int64.div cur base;
        rem := Int64.rem cur base
      done;
      while !hi > 0 && d.(!hi) = 0L do
        decr hi
      done;
      groups := Int64.to_int !rem :: !groups
    done;
    match !groups with
    | [] -> "0"
    | g :: rest ->
        let buf = Buffer.create 78 in
        Buffer.add_string buf (string_of_int g);
        List.iter (fun g -> Buffer.add_string buf (Printf.sprintf "%09d" g)) rest;
        Buffer.contents buf
  end

(** 32-byte big-endian encoding, as stored in EVM words. *)
let to_bytes_be t =
  let b = Bytes.create 32 in
  for i = 0 to 3 do
    let l = limb t (3 - i) in
    for j = 0 to 7 do
      Bytes.set b ((i * 8) + j)
        (Char.chr
           (Int64.to_int
              (Int64.logand (Int64.shift_right_logical l ((7 - j) * 8)) 0xFFL)))
    done
  done;
  Bytes.unsafe_to_string b

(** Parse a big-endian byte string of at most 32 bytes. *)
let of_bytes_be s =
  let n = String.length s in
  if n > 32 then invalid_arg "Uint256.of_bytes_be: more than 32 bytes";
  let padded = String.make (32 - n) '\000' ^ s in
  let limb_of i =
    let acc = ref 0L in
    for j = 0 to 7 do
      acc :=
        Int64.logor (Int64.shift_left !acc 8)
          (Int64.of_int (Char.code padded.[(i * 8) + j]))
    done;
    !acc
  in
  { l3 = limb_of 0; l2 = limb_of 1; l1 = limb_of 2; l0 = limb_of 3 }

let to_hex_string t = "0x" ^ Xcw_util.Hex.encode (to_bytes_be t)

let of_hex_string s =
  let h = Xcw_util.Hex.strip_0x s in
  let h = if String.length h mod 2 = 1 then "0" ^ h else h in
  of_bytes_be (Xcw_util.Hex.decode h)

(** Parse decimal or (0x-prefixed) hex. *)
let of_string s =
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    of_hex_string s
  else of_decimal_string s

let to_string = to_decimal_string

let pp fmt t = Format.pp_print_string fmt (to_decimal_string t)

(** [of_float f] converts a non-negative float; fractional part truncated.
    Handles values beyond [max_int] (token amounts in wei). *)
let rec of_float f =
  if f < 0.0 then invalid_arg "Uint256.of_float: negative";
  if f >= 1.2e77 (* ~2^256 *) then invalid_arg "Uint256.of_float: too large";
  if f < 9.2e18 then of_int64 (Int64.of_float f)
  else begin
    (* Peel 32 bits at a time so the recursion always terminates (a
       64-bit split leaves the low part unchanged for values just above
       the int64 range). *)
    let scale = 2.0 ** 32.0 in
    let hi = Float.floor (f /. scale) in
    let lo = f -. (hi *. scale) in
    add (shift_left (of_float hi) 32) (of_float lo)
  end

let to_float t =
  let scale = 2.0 ** 64.0 in
  let f_of_limb l =
    if Int64.compare l 0L >= 0 then Int64.to_float l
    else Int64.to_float l +. 18446744073709551616.0
  in
  (((f_of_limb t.l3 *. scale) +. f_of_limb t.l2) *. scale +. f_of_limb t.l1)
  *. scale
  +. f_of_limb t.l0

(** [of_tokens ~decimals n] is [n * 10^decimals]; e.g.
    [of_tokens ~decimals:18 5] is 5 ether in wei. *)
let of_tokens ~decimals n =
  let rec pow10 acc k = if k = 0 then acc else pow10 (mul_exn acc ten) (k - 1) in
  mul_exn (of_int n) (pow10 one decimals)

(** [to_tokens ~decimals t] is the float token amount (lossy). *)
let to_tokens ~decimals t = to_float t /. (10.0 ** float_of_int decimals)
