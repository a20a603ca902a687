module U256 = Amm_math.U256
module Mont = U256.Mont

(* Elements are stored in Montgomery form (x·R mod order, R = 2^270):
   the BN254 order is fixed for the lifetime of the program, so every
   multiplication runs through the precomputed CIOS context instead of
   the generic 512-bit product + Knuth division of [U256.mul_mod].
   Montgomery residues are canonical (always reduced), so equality,
   zero-tests and hashing work on the raw representation; only
   [of_u256]/[to_u256] convert. The [_naive] functions keep the original
   generic-modulus code path alive as a differential reference. *)

type t = U256.t

let order =
  U256.of_string
    "21888242871839275222246405745257275088548364400416034343698204186575808495617"

let ctx = Mont.create ~modulus:order

let zero = U256.zero
let one = Mont.one ctx
let of_u256 x = Mont.to_mont ctx (U256.rem x order)
let of_int n = of_u256 (U256.of_int n)
let to_u256 x = Mont.of_mont ctx x
let of_bytes b = of_u256 (U256.of_bytes_be (Sha256.digest b))

let equal = U256.equal
let is_zero = U256.is_zero

(* Both operands are reduced and the order is 254 bits, so the sum never
   wraps 256 bits: a conditional subtract replaces the generic [rem]. *)
let add a b =
  let s = U256.add a b in
  if U256.ge s order then U256.sub s order else s

let sub a b = if U256.ge a b then U256.sub a b else U256.sub (U256.add a order) b
let neg a = if U256.is_zero a then zero else U256.sub order a
let mul a b = Mont.mul ctx a b

let pow base exponent =
  (* Square-and-multiply over the 256 exponent bits. *)
  let result = ref one and acc = ref base in
  for i = 0 to U256.bits exponent - 1 do
    if U256.bit exponent i then result := mul !result !acc;
    acc := mul !acc !acc
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Inversion: binary extended GCD                                      *)
(* ------------------------------------------------------------------ *)

(* x/2 mod order for x < order: odd x borrows the odd modulus first
   (x + order < 2^255, so the add cannot wrap). *)
let half_mod x =
  if U256.bit x 0 then U256.shift_right (U256.add x order) 1
  else U256.shift_right x 1

let sub_mod a b =
  if U256.ge a b then U256.sub a b else U256.sub (U256.add a order) b

(* Inverse of a nonzero residue modulo [order] by the binary extended
   GCD (HAC 14.61 specialised to an odd prime modulus): invariants
   x1·a ≡ u and x2·a ≡ v (mod order); ~1.5 shift/sub iterations per bit
   instead of the ~380 full Montgomery multiplications Fermat costs. *)
let inv_u256 a =
  let u = ref a and v = ref order in
  let x1 = ref U256.one and x2 = ref U256.zero in
  while (not (U256.equal !u U256.one)) && not (U256.equal !v U256.one) do
    while not (U256.bit !u 0) do
      u := U256.shift_right !u 1;
      x1 := half_mod !x1
    done;
    while not (U256.bit !v 0) do
      v := U256.shift_right !v 1;
      x2 := half_mod !x2
    done;
    if U256.ge !u !v then begin
      u := U256.sub !u !v;
      x1 := sub_mod !x1 !x2
    end
    else begin
      v := U256.sub !v !u;
      x2 := sub_mod !x2 !x1
    end
  done;
  if U256.equal !u U256.one then !x1 else !x2

let inv a =
  if is_zero a then raise Division_by_zero;
  (* a is v·R; the GCD inverts the raw residue to v⁻¹·R⁻¹, and each
     to_mont multiplies by R, landing back on the Montgomery form v⁻¹·R. *)
  Mont.to_mont ctx (Mont.to_mont ctx (inv_u256 a))

let div a b = mul a (inv b)

(* Montgomery's batch-inversion trick: one inversion plus 3(n−1)
   multiplications for n inverses. Raises [Division_by_zero] if any
   entry is zero (the prefix product collapses, as single [inv] would). *)
let batch_inv xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let prefix = Array.make n xs.(0) in
    for i = 1 to n - 1 do
      prefix.(i) <- mul prefix.(i - 1) xs.(i)
    done;
    let acc = ref (inv prefix.(n - 1)) in
    let out = Array.make n zero in
    for i = n - 1 downto 1 do
      out.(i) <- mul !acc prefix.(i - 1);
      acc := mul !acc xs.(i)
    done;
    out.(0) <- !acc;
    out
  end

(* ------------------------------------------------------------------ *)
(* Naive reference implementations                                     *)
(* ------------------------------------------------------------------ *)

(* The pre-fast-path code: generic-modulus multiply (full 512-bit
   product + division) and Fermat inversion. Kept for differential
   tests — every fast operation must agree with these exactly. *)

let mul_naive a b = of_u256 (U256.mul_mod (to_u256 a) (to_u256 b) order)

let pow_naive base exponent =
  let result = ref one and acc = ref base in
  for i = 0 to U256.bits exponent - 1 do
    if U256.bit exponent i then result := mul_naive !result !acc;
    acc := mul_naive !acc !acc
  done;
  !result

let inv_naive a =
  if is_zero a then raise Division_by_zero;
  pow_naive a (U256.sub order (U256.of_int 2))

let pp fmt x = U256.pp fmt (to_u256 x)
