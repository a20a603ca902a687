(* Unsigned 256-bit integers over nine little-endian limbs: limbs 0-7 hold
   30 bits each and limb 8 holds bits 240-255. A limb product is below
   2^60, so a product plus a limb plus a carry stays within OCaml's 63-bit
   native int: schoolbook multiplication, Montgomery reduction and Knuth's
   algorithm D need no operand splitting and no Int64 boxing.

   Every result is built by an array literal (or [scratch]), which the
   compiler allocates inline on the minor heap as a 10-word block. An
   all-constant literal would instead be duplicated from a static block by
   a C call, so fresh zero buffers bind a variable first. *)

type t = int array (* length 9; limbs 0-7 in [0, 2^30), limb 8 in [0, 2^16) *)

exception Overflow

external ( .%() ) : int array -> int -> int = "%array_unsafe_get"
external ( .%()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

let nlimbs = 9
let limb_bits = 30
let base = 1 lsl limb_bits
let mask = base - 1
let top_mask = 0xFFFF

let zero = [| 0; 0; 0; 0; 0; 0; 0; 0; 0 |]
let one = [| 1; 0; 0; 0; 0; 0; 0; 0; 0 |]
let two = [| 2; 0; 0; 0; 0; 0; 0; 0; 0 |]
let max_value = [| mask; mask; mask; mask; mask; mask; mask; mask; top_mask |]

let scratch () =
  let z = 0 in
  [| z; z; z; z; z; z; z; z; z |]

let copy (x : t) =
  [| x.%(0); x.%(1); x.%(2); x.%(3); x.%(4); x.%(5); x.%(6); x.%(7); x.%(8) |]

(* Number of limbs up to and including the highest nonzero one. *)
let len (x : int array) =
  let n = ref nlimbs in
  while !n > 0 && x.%(!n - 1) = 0 do decr n done;
  !n

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let of_int n =
  if n < 0 then invalid_arg "U256.of_int: negative";
  [| n land mask; (n lsr 30) land mask; n lsr 60; 0; 0; 0; 0; 0; 0 |]

let of_int64 n =
  let lo = Int64.to_int n in
  [| lo land mask; (lo lsr 30) land mask; Int64.to_int (Int64.shift_right_logical n 60);
     0; 0; 0; 0; 0; 0 |]

(* The value as a native int when it is below 2^62, else -1. *)
let to_small (x : t) =
  if x.%(3) lor x.%(4) lor x.%(5) lor x.%(6) lor x.%(7) lor x.%(8) <> 0 || x.%(2) >= 4
  then -1
  else x.%(0) lor (x.%(1) lsl 30) lor (x.%(2) lsl 60)

let to_int_opt x =
  (* Native ints hold 62 value bits; accept values below 2^62. *)
  let n = to_small x in
  if n < 0 then None else Some n

let to_int x =
  let n = to_small x in
  if n < 0 then raise Overflow else n

(* Bits [16i, 16i+16) of [x]. *)
let digit16 (x : t) i =
  let p = 16 * i in
  let l = p / limb_bits and o = p mod limb_bits in
  let v = x.%(l) lsr o in
  (if o > limb_bits - 16 then v lor (x.%(l + 1) lsl (limb_bits - o)) else v) land 0xFFFF

(* Horner over base-2^16 digits, not over limbs: the rounding of every
   printed float depends on this order. *)
let to_float x =
  let acc = ref 0.0 in
  for i = 15 downto 0 do
    acc := (!acc *. 65536.0) +. float_of_int (digit16 x i)
  done;
  !acc

let is_zero (x : t) =
  x.%(0) lor x.%(1) lor x.%(2) lor x.%(3) lor x.%(4) lor x.%(5) lor x.%(6) lor x.%(7)
  lor x.%(8)
  = 0

let compare (a : t) (b : t) =
  let i = ref 8 in
  while !i > 0 && a.%(!i) = b.%(!i) do decr i done;
  Int.compare a.%(!i) b.%(!i)

let equal (a : t) (b : t) =
  a.%(0) = b.%(0) && a.%(1) = b.%(1) && a.%(2) = b.%(2) && a.%(3) = b.%(3)
  && a.%(4) = b.%(4) && a.%(5) = b.%(5) && a.%(6) = b.%(6) && a.%(7) = b.%(7)
  && a.%(8) = b.%(8)

let lt a b = compare a b < 0
let le a b = compare a b <= 0
let gt a b = compare a b > 0
let ge a b = compare a b >= 0
let min a b = if le a b then a else b
let max a b = if ge a b then a else b

(* ------------------------------------------------------------------ *)
(* Addition / subtraction                                              *)
(* ------------------------------------------------------------------ *)

let sum ~checked (a : t) (b : t) =
  let s0 = a.%(0) + b.%(0) in
  let s1 = a.%(1) + b.%(1) + (s0 lsr 30) in
  let s2 = a.%(2) + b.%(2) + (s1 lsr 30) in
  let s3 = a.%(3) + b.%(3) + (s2 lsr 30) in
  let s4 = a.%(4) + b.%(4) + (s3 lsr 30) in
  let s5 = a.%(5) + b.%(5) + (s4 lsr 30) in
  let s6 = a.%(6) + b.%(6) + (s5 lsr 30) in
  let s7 = a.%(7) + b.%(7) + (s6 lsr 30) in
  let s8 = a.%(8) + b.%(8) + (s7 lsr 30) in
  if checked && s8 > top_mask then raise Overflow;
  [| s0 land mask; s1 land mask; s2 land mask; s3 land mask; s4 land mask;
     s5 land mask; s6 land mask; s7 land mask; s8 land top_mask |]

let add a b = sum ~checked:false a b
let checked_add a b = sum ~checked:true a b

(* A limb difference plus the previous borrow lies in [-2^30, 2^30), so
   [asr 30] is the next borrow (-1 or 0) and [land mask] the limb. *)
let diff ~checked (a : t) (b : t) =
  let d0 = a.%(0) - b.%(0) in
  let d1 = a.%(1) - b.%(1) + (d0 asr 30) in
  let d2 = a.%(2) - b.%(2) + (d1 asr 30) in
  let d3 = a.%(3) - b.%(3) + (d2 asr 30) in
  let d4 = a.%(4) - b.%(4) + (d3 asr 30) in
  let d5 = a.%(5) - b.%(5) + (d4 asr 30) in
  let d6 = a.%(6) - b.%(6) + (d5 asr 30) in
  let d7 = a.%(7) - b.%(7) + (d6 asr 30) in
  let d8 = a.%(8) - b.%(8) + (d7 asr 30) in
  if checked && d8 < 0 then raise Overflow;
  [| d0 land mask; d1 land mask; d2 land mask; d3 land mask; d4 land mask;
     d5 land mask; d6 land mask; d7 land mask; d8 land top_mask |]

let sub a b = diff ~checked:false a b
let checked_sub a b = diff ~checked:true a b

(* The destination-passing forms read limb i of both inputs before
   writing limb i of [dst], so any aliasing is safe. *)
let add_into ~dst a b =
  let carry = ref 0 in
  for i = 0 to nlimbs - 1 do
    let s = a.%(i) + b.%(i) + !carry in
    dst.%(i) <- s land mask;
    carry := s lsr 30
  done;
  dst.%(8) <- dst.%(8) land top_mask

let sub_into ~dst a b =
  let borrow = ref 0 in
  for i = 0 to nlimbs - 1 do
    let d = a.%(i) - b.%(i) + !borrow in
    dst.%(i) <- d land mask;
    borrow := d asr 30
  done;
  dst.%(8) <- dst.%(8) land top_mask

(* ------------------------------------------------------------------ *)
(* Multiplication                                                      *)
(* ------------------------------------------------------------------ *)

(* Low 256 bits of a*b into the zeroed [r], which must not alias an input.
   Rows run over the effective lengths only (typical operands use 3-6 of
   the nine limbs) and stop at limb 8. [checked] raises {!Overflow} instead
   of wrapping; a product needs at most la+lb limbs, so la+lb > 10 means it
   is at least 2^270 and overflows for sure, while la+lb <= 10 keeps every
   row untruncated. *)
let mul_low ~checked (r : t) (a : t) (b : t) =
  let la = len a and lb = len b in
  if checked && la + lb > 10 then raise Overflow;
  for i = 0 to la - 1 do
    let ai = a.%(i) in
    if ai <> 0 then begin
      let jmax = Int.min (lb - 1) (8 - i) in
      let carry = ref 0 in
      for j = 0 to jmax do
        let p = (ai * b.%(j)) + r.%(i + j) + !carry in
        r.%(i + j) <- p land mask;
        carry := p lsr 30
      done;
      (* An untruncated row's spill limb i+lb is still zero: earlier rows
         only reached i-1+lb. *)
      let k = i + jmax + 1 in
      if k <= 8 then r.%(k) <- !carry
      else if checked && !carry <> 0 then raise Overflow
    end
  done;
  if r.%(8) > top_mask then
    if checked then raise Overflow else r.%(8) <- r.%(8) land top_mask

let mul a b =
  let r = scratch () in
  mul_low ~checked:false r a b;
  r

let checked_mul a b =
  let r = scratch () in
  mul_low ~checked:true r a b;
  r

let mul_into ~dst a b =
  if dst == a || dst == b then invalid_arg "U256.mul_into: dst aliases an input";
  for i = 0 to nlimbs - 1 do dst.%(i) <- 0 done;
  mul_low ~checked:false dst a b

(* A zeroed 19-limb buffer: an 18-limb 512-bit product plus the spare limb
   Knuth-D normalization shifts into. *)
let wide () =
  let z = 0 in
  [| z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z |]

(* Full product a*b into the zeroed [p]; returns its effective length. *)
let mul_wide p (a : t) (b : t) =
  let la = len a and lb = len b in
  for i = 0 to la - 1 do
    let ai = a.%(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let v = (ai * b.%(j)) + p.%(i + j) + !carry in
        p.%(i + j) <- v land mask;
        carry := v lsr 30
      done;
      p.%(i + lb) <- !carry
    end
  done;
  let m = ref (la + lb) in
  while !m > 0 && p.%(!m - 1) = 0 do decr m done;
  !m

(* ------------------------------------------------------------------ *)
(* Division: Knuth algorithm D over base-2^30 limbs                    *)
(* ------------------------------------------------------------------ *)

(* Leading zero bits of a nonzero limb within 30 bits. *)
let limb_nlz d =
  let n = ref 0 and d = ref d in
  while !d land (1 lsl 29) = 0 do
    incr n;
    d := !d lsl 1
  done;
  !n

(* Quotient limb [j] into [q], raising {!Overflow} when the quotient does
   not fit in 256 bits. *)
let store_q (q : t) j qj =
  if j >= nlimbs then (if qj <> 0 then raise Overflow)
  else if j = 8 && qj > top_mask then raise Overflow
  else q.%(j) <- qj

(* Divides the [m]-limb dividend in [u] by the [n]-limb [v] (n >= 1, top
   limb nonzero). [u] belongs to the caller and is overwritten: it needs
   max(m+1, n) limbs with every limb from index m up zero, and is left
   holding the remainder, shifted left by the returned normalization
   amount, in limbs [0, n). With [keep_q] the quotient limbs go to the
   zeroed [q]; without it [q] is never touched and the quotient may be of
   any size. *)
let knuth ~keep_q (q : t) (u : int array) m (v : t) n =
  if m < n then 0
  else if n = 1 then begin
    let d = v.%(0) in
    let r = ref 0 in
    for j = m - 1 downto 0 do
      let cur = (!r lsl 30) lor u.%(j) in
      let qj = cur / d in
      if keep_q then store_q q j qj;
      r := cur - (qj * d)
    done;
    u.%(0) <- !r;
    0
  end
  else begin
    let s = limb_nlz v.%(n - 1) in
    let vn = scratch () in
    for i = n - 1 downto 1 do
      vn.%(i) <- ((v.%(i) lsl s) lor (v.%(i - 1) lsr (30 - s))) land mask
    done;
    vn.%(0) <- (v.%(0) lsl s) land mask;
    for i = m downto 1 do
      u.%(i) <- ((u.%(i) lsl s) lor (u.%(i - 1) lsr (30 - s))) land mask
    done;
    u.%(0) <- (u.%(0) lsl s) land mask;
    let vtop = vn.%(n - 1) and vnext = vn.%(n - 2) in
    for j = m - n downto 0 do
      let num = (u.%(j + n) lsl 30) lor u.%(j + n - 1) in
      let qhat = ref (num / vtop) in
      let rhat = ref (num - (!qhat * vtop)) in
      while
        !rhat < base
        && (!qhat >= base || !qhat * vnext > (!rhat lsl 30) lor u.%(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + vtop
      done;
      (* Multiply and subtract qhat * vn from u[j .. j+n]; [k] carries the
         product's high part minus the (non-positive) borrow. *)
      let qh = !qhat in
      let k = ref 0 in
      for i = 0 to n - 1 do
        let p = qh * vn.%(i) in
        let t = u.%(i + j) - !k - (p land mask) in
        u.%(i + j) <- t land mask;
        k := (p lsr 30) - (t asr 30)
      done;
      let t = u.%(j + n) - !k in
      u.%(j + n) <- t land mask;
      if t < 0 then begin
        (* qhat was one too large: add vn back. *)
        if keep_q then store_q q j (qh - 1);
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s2 = u.%(i + j) + vn.%(i) + !c in
          u.%(i + j) <- s2 land mask;
          c := s2 lsr 30
        done;
        u.%(j + n) <- (u.%(j + n) + !c) land mask
      end
      else if keep_q then store_q q j qh
    done;
    s
  end

(* The remainder [knuth] left in [u], shifted back down by [s]. *)
let remainder (u : int array) n s =
  let r = scratch () in
  for i = 0 to n - 1 do
    let hi = if i + 1 < n then u.%(i + 1) else 0 in
    r.%(i) <- ((u.%(i) lsr s) lor (hi lsl (30 - s))) land mask
  done;
  r

let remainder_is_zero (u : int array) n =
  let i = ref 0 in
  while !i < n && u.%(!i) = 0 do incr i done;
  !i = n

(* [a] with a spare zero limb, as [knuth] wants its dividend. *)
let widen (a : t) =
  [| a.%(0); a.%(1); a.%(2); a.%(3); a.%(4); a.%(5); a.%(6); a.%(7); a.%(8); 0 |]

let divisor_len b =
  let n = len b in
  if n = 0 then raise Division_by_zero;
  n

let divmod a b =
  let n = divisor_len b in
  let u = widen a and q = scratch () in
  let s = knuth ~keep_q:true q u (len a) b n in
  (q, remainder u n s)

let div a b =
  let n = divisor_len b in
  let q = scratch () in
  ignore (knuth ~keep_q:true q (widen a) (len a) b n);
  q

let rem a b =
  let n = divisor_len b in
  let u = widen a in
  remainder u n (knuth ~keep_q:false zero u (len a) b n)

let div_rounding_up a b =
  let q, r = divmod a b in
  if is_zero r then q else checked_add q one

(* Small-operand fast path for the mul_div family: a*b as a native int
   when both factors are below 2^31, else -1. *)
let small_product a b =
  let ia = to_small a in
  if ia < 0 || ia >= 1 lsl 31 then -1
  else
    let ib = to_small b in
    if ib < 0 || ib >= 1 lsl 31 then -1 else ia * ib

(* floor(a*b / c) through the 512-bit product; [q] gets the quotient and
   the product buffer, holding the normalized remainder, is returned. *)
let wide_div q a b c =
  let n = divisor_len c in
  let p = wide () in
  let m = mul_wide p a b in
  ignore (knuth ~keep_q:true q p m c n);
  p

let mul_div a b c =
  if b == c then begin
    (* a*b/b = a exactly; Q96 scale/unscale round-trips hit this. *)
    if is_zero c then raise Division_by_zero;
    a
  end
  else
    let p = small_product a b in
    if p >= 0 then begin
      let ic = to_small c in
      if ic = 0 then raise Division_by_zero
      else if ic > 0 then of_int (p / ic)
      else (* c needs more than 62 bits, so c > a*b *) scratch ()
    end
    else begin
      let q = scratch () in
      ignore (wide_div q a b c);
      q
    end

let mul_div_rounding_up a b c =
  if b == c then begin
    if is_zero c then raise Division_by_zero;
    a (* remainder is zero: nothing to round *)
  end
  else
    let p = small_product a b in
    if p >= 0 then begin
      let ic = to_small c in
      if ic = 0 then raise Division_by_zero
      else if ic > 0 then of_int ((p / ic) + if p mod ic = 0 then 0 else 1)
      else of_int (if p = 0 then 0 else 1)
    end
    else begin
      let q = scratch () in
      let u = wide_div q a b c in
      if remainder_is_zero u (len c) then q else checked_add q one
    end

let mul_mod a b c =
  let n = divisor_len c in
  let p = wide () in
  let m = mul_wide p a b in
  remainder p n (knuth ~keep_q:false zero p m c n)

let pow x n =
  if n < 0 then invalid_arg "U256.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else go (if n land 1 = 1 then mul acc b else acc) (mul b b) (n lsr 1)
  in
  go one x n

(* ------------------------------------------------------------------ *)
(* Fixed-modulus Montgomery arithmetic                                 *)
(* ------------------------------------------------------------------ *)

(* Modular multiplication against a modulus fixed once per context: the
   generic [mul_mod] pays a full 512-bit schoolbook product plus a Knuth
   division on every call, while Montgomery's method replaces the
   division with shifts against a precomputed -m^-1 mod 2^30. R = 2^270,
   one limb shift per row. *)
module Mont = struct
  (* The [one] accessor below shadows the module-level constant. *)
  let u256_one = one

  type ctx = {
    m : t;
    m0' : int; (* -m^-1 mod 2^30 *)
    one_m : t; (* R mod m: the Montgomery form of 1 *)
    r2 : t; (* R^2 mod m, for conversions into Montgomery form *)
  }

  let modulus ctx = copy ctx.m
  let one ctx = copy ctx.one_m

  (* CIOS Montgomery product a*b*R^-1 mod m, with each row's product and
     reduction fused into one pass: a limb plus two limb products plus a
     carry stays below 2^62. For reduced inputs the running value T stays
     below 2m < 2^257 between rows, so nine limbs hold it (limb 8 may
     exceed 16 bits until the final subtraction, when m >= 2^255). *)
  let mul ctx (a : t) (b : t) =
    let m = ctx.m and m0' = ctx.m0' in
    let r = scratch () in
    for i = 0 to nlimbs - 1 do
      let ai = a.%(i) in
      let v0 = r.%(0) + (ai * b.%(0)) in
      (* q kills the low limb: (T + ai*b + q*m) mod 2^30 = 0. *)
      let q = (v0 land mask) * m0' land mask in
      let carry = ref ((v0 + (q * m.%(0))) lsr 30) in
      for j = 1 to nlimbs - 1 do
        let v = r.%(j) + (ai * b.%(j)) + (q * m.%(j)) + !carry in
        r.%(j - 1) <- v land mask;
        carry := v lsr 30
      done;
      r.%(8) <- !carry
    done;
    (* T < 2m: one conditional subtract normalizes. *)
    if ge r m then sub_into ~dst:r r m;
    r

  let create ~modulus =
    if is_zero modulus || modulus.%(0) land 1 = 0 then
      invalid_arg "U256.Mont.create: modulus must be odd";
    (* m0' = -m^-1 mod 2^30 by Newton–Hensel lifting: for odd m0 the seed
       m0 is its own inverse mod 8, and each step doubles the bits. *)
    let m0 = modulus.%(0) in
    let x = ref m0 in
    for _ = 1 to 4 do
      x := !x * (2 - (m0 * !x)) land mask
    done;
    let m0' = (base - !x) land mask in
    (* 2^256 mod m without a 257-bit value: (2^256 - 1) mod m, +1; then
       R = 2^256 * 2^14. *)
    let r256 = rem (add (rem max_value modulus) u256_one) modulus in
    let one_m = mul_mod r256 (of_int (1 lsl 14)) modulus in
    let r2 = mul_mod one_m one_m modulus in
    { m = copy modulus; m0'; one_m; r2 }

  let to_mont ctx x = mul ctx x ctx.r2
  let of_mont ctx x = mul ctx x u256_one
end

(* ------------------------------------------------------------------ *)
(* Bitwise                                                             *)
(* ------------------------------------------------------------------ *)

let[@inline] map2 f (a : t) (b : t) =
  [| f a.%(0) b.%(0); f a.%(1) b.%(1); f a.%(2) b.%(2); f a.%(3) b.%(3);
     f a.%(4) b.%(4); f a.%(5) b.%(5); f a.%(6) b.%(6); f a.%(7) b.%(7);
     f a.%(8) b.%(8) |]

let logand a b = map2 ( land ) a b
let logor a b = map2 ( lor ) a b
let logxor a b = map2 ( lxor ) a b

let lognot (a : t) =
  [| a.%(0) lxor mask; a.%(1) lxor mask; a.%(2) lxor mask; a.%(3) lxor mask;
     a.%(4) lxor mask; a.%(5) lxor mask; a.%(6) lxor mask; a.%(7) lxor mask;
     a.%(8) lxor top_mask |]

let[@inline] limb_at (x : t) i = if i >= 0 && i < nlimbs then x.%(i) else 0

(* Limb [i] of x shifted by [d] limbs and [s] bits (s < 30). With s = 0
   the neighbour's contribution shifts out entirely. *)
let[@inline] shl_limb x d s i =
  ((limb_at x (i - d) lsl s) lor (limb_at x (i - d - 1) lsr (30 - s))) land mask

let[@inline] shr_limb x d s i =
  ((limb_at x (i + d) lsr s) lor (limb_at x (i + d + 1) lsl (30 - s))) land mask

let shift_left x k =
  if k < 0 then invalid_arg "U256.shift_left";
  if k >= 256 then zero
  else begin
    let d = k / 30 and s = k mod 30 in
    [| shl_limb x d s 0; shl_limb x d s 1; shl_limb x d s 2; shl_limb x d s 3;
       shl_limb x d s 4; shl_limb x d s 5; shl_limb x d s 6; shl_limb x d s 7;
       shl_limb x d s 8 land top_mask |]
  end

let shift_right x k =
  if k < 0 then invalid_arg "U256.shift_right";
  if k >= 256 then zero
  else begin
    let d = k / 30 and s = k mod 30 in
    [| shr_limb x d s 0; shr_limb x d s 1; shr_limb x d s 2; shr_limb x d s 3;
       shr_limb x d s 4; shr_limb x d s 5; shr_limb x d s 6; shr_limb x d s 7;
       shr_limb x d s 8 |]
  end

let bit (x : t) i =
  if i < 0 || i >= 256 then false else (x.%(i / 30) lsr (i mod 30)) land 1 = 1

let bits x =
  let n = len x in
  if n = 0 then 0
  else begin
    let rec width w d = if d = 0 then w else width (w + 1) (d lsr 1) in
    ((n - 1) * limb_bits) + width 0 x.%(n - 1)
  end

let sqrt n =
  if is_zero n then zero
  else begin
    let x0 = shift_left one ((bits n + 1) / 2) in
    let rec go x =
      let x' = shift_right (add x (div n x)) 1 in
      if lt x' x then go x' else x
    in
    go x0
  end

(* ------------------------------------------------------------------ *)
(* Bytes: 32 big-endian bytes at an offset                             *)
(* ------------------------------------------------------------------ *)

(* Limbs are read and written through the eight 32-bit halves of four
   big-endian 64-bit words; h_k holds bits [32k, 32k+32), and limb l_k
   takes the top 2k bits of h_(k-1) and the low 30-2k bits of h_k. *)
let[@inline] lo32 w = Int64.to_int w land 0xFFFF_FFFF
let[@inline] hi32 w = Int64.to_int (Int64.shift_right_logical w 32)

let get_bytes_be b off =
  if off < 0 || off > Bytes.length b - 32 then invalid_arg "U256.get_bytes_be";
  let w0 = Bytes.get_int64_be b (off + 24) and w1 = Bytes.get_int64_be b (off + 16) in
  let w2 = Bytes.get_int64_be b (off + 8) and w3 = Bytes.get_int64_be b off in
  let h0 = lo32 w0 and h1 = hi32 w0 and h2 = lo32 w1 and h3 = hi32 w1 in
  let h4 = lo32 w2 and h5 = hi32 w2 and h6 = lo32 w3 and h7 = hi32 w3 in
  [| h0 land mask;
     (h0 lsr 30) lor ((h1 land 0xFFFFFFF) lsl 2);
     (h1 lsr 28) lor ((h2 land 0x3FFFFFF) lsl 4);
     (h2 lsr 26) lor ((h3 land 0xFFFFFF) lsl 6);
     (h3 lsr 24) lor ((h4 land 0x3FFFFF) lsl 8);
     (h4 lsr 22) lor ((h5 land 0xFFFFF) lsl 10);
     (h5 lsr 20) lor ((h6 land 0x3FFFF) lsl 12);
     (h6 lsr 18) lor ((h7 land 0xFFFF) lsl 14);
     h7 lsr 16 |]

(* h_k back from limbs k and k+1, as one 64-bit word per pair. *)
let[@inline] half (x : t) k =
  ((x.%(k) lsr (2 * k)) lor (x.%(k + 1) lsl (30 - (2 * k)))) land 0xFFFF_FFFF

let[@inline] word x k =
  Int64.logor (Int64.shift_left (Int64.of_int (half x (k + 1))) 32) (Int64.of_int (half x k))

let set_bytes_be b off x =
  if off < 0 || off > Bytes.length b - 32 then invalid_arg "U256.set_bytes_be";
  Bytes.set_int64_be b (off + 24) (word x 0);
  Bytes.set_int64_be b (off + 16) (word x 2);
  Bytes.set_int64_be b (off + 8) (word x 4);
  Bytes.set_int64_be b off (word x 6)

let to_bytes_be x =
  let b = Bytes.create 32 in
  set_bytes_be b 0 x;
  b

let of_bytes_be b =
  let len = Bytes.length b in
  if len = 0 || len > 32 then invalid_arg "U256.of_bytes_be: need 1..32 bytes";
  if len = 32 then get_bytes_be b 0
  else begin
    let padded = Bytes.make 32 '\000' in
    Bytes.blit b 0 padded (32 - len) len;
    get_bytes_be padded 0
  end

(* ------------------------------------------------------------------ *)
(* Strings                                                             *)
(* ------------------------------------------------------------------ *)

let to_string x =
  if is_zero x then "0"
  else begin
    (* Repeated short division by 10^9 < 2^30 in a private copy. *)
    let cur = copy x in
    let chunks = ref [] in
    let m = ref (len cur) in
    while !m > 0 do
      let r = ref 0 in
      for j = !m - 1 downto 0 do
        let v = (!r lsl 30) lor cur.%(j) in
        let qj = v / 1_000_000_000 in
        cur.%(j) <- qj;
        r := v - (qj * 1_000_000_000)
      done;
      chunks := !r :: !chunks;
      while !m > 0 && cur.%(!m - 1) = 0 do decr m done
    done;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 78 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_hex s =
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
    then String.sub s 2 (String.length s - 2) else s in
  if s = "" then invalid_arg "U256.of_hex: empty";
  if String.length s > 64 then raise Overflow;
  let r = scratch () in
  let nibble c = match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "U256.of_hex: bad character"
  in
  let len = String.length s in
  for i = 0 to len - 1 do
    let v = nibble s.[len - 1 - i] in
    let p = 4 * i in
    let l = p / 30 and o = p mod 30 in
    r.%(l) <- r.%(l) lor ((v lsl o) land mask);
    (* Nibbles start at even offsets, so only offset 28 straddles. *)
    if o > 26 then r.%(l + 1) <- r.%(l + 1) lor (v lsr (30 - o))
  done;
  r

let of_string s =
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then of_hex s
  else begin
    if s = "" then invalid_arg "U256.of_string: empty";
    let acc = ref zero in
    let ten_k = of_int 10000 in
    let len = String.length s in
    let i = ref 0 in
    (* Consume in chunks of up to 4 decimal digits. *)
    while !i < len do
      let chunk_len = Stdlib.min 4 (len - !i) in
      let chunk = String.sub s !i chunk_len in
      String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "U256.of_string: bad character") chunk;
      let scale = match chunk_len with 1 -> of_int 10 | 2 -> of_int 100 | 3 -> of_int 1000 | _ -> ten_k in
      acc := checked_add (checked_mul !acc scale) (of_int (int_of_string chunk));
      i := !i + chunk_len
    done;
    !acc
  end

let to_hex x =
  if is_zero x then "0"
  else begin
    let h = Printf.sprintf "%02x" in
    let b = to_bytes_be x in
    let full = String.concat "" (List.init 32 (fun i -> h (Char.code (Bytes.get b i)))) in
    let start = ref 0 in
    while full.[!start] = '0' do incr start done;
    String.sub full !start (64 - !start)
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)
let pp_hex fmt x = Format.fprintf fmt "0x%s" (to_hex x)
