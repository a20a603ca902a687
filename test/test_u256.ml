(* Unit and property tests for the from-scratch 256-bit integers and the
   sign-magnitude layer on top. *)

open Amm_math

let u = U256.of_string

let check_u256 = Alcotest.testable U256.pp U256.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Random values across the whole range: a random bit-width keeps small
   and huge magnitudes equally likely. *)
let gen_u256 =
  QCheck2.Gen.(
    let* width = int_range 0 255 in
    let* a = int_range 0 max_int in
    let* b = int_range 0 max_int in
    let base = U256.logor (U256.of_int a) (U256.shift_left (U256.of_int b) 62) in
    let masked = U256.rem base (U256.shift_left U256.one width) in
    return (if U256.is_zero masked then U256.of_int (a land 0xFFFF) else masked))

let gen_nonzero = QCheck2.Gen.map (fun x -> U256.add x U256.one) gen_u256

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  Alcotest.(check string) "zero" "0" (U256.to_string U256.zero);
  Alcotest.(check string) "one" "1" (U256.to_string U256.one);
  Alcotest.(check string) "max"
    "115792089237316195423570985008687907853269984665640564039457584007913129639935"
    (U256.to_string U256.max_value)

let test_of_string_roundtrip () =
  let cases =
    [ "0"; "1"; "42"; "65535"; "65536"; "18446744073709551615";
      "340282366920938463463374607431768211456";
      "115792089237316195423570985008687907853269984665640564039457584007913129639935" ]
  in
  List.iter (fun s -> Alcotest.(check string) s s (U256.to_string (u s))) cases

let test_hex () =
  Alcotest.(check string) "hex" "deadbeef" (U256.to_hex (u "0xdeadbeef"));
  Alcotest.check check_u256 "hex value" (U256.of_int 0xdeadbeef) (u "0xDEADBEEF");
  Alcotest.(check string) "zero hex" "0" (U256.to_hex U256.zero)

let test_add_carry_chain () =
  (* 2^256 - 1 + 1 wraps to 0 through eight 30-bit limb carries and the
     16-bit top limb. *)
  Alcotest.check check_u256 "wrap" U256.zero (U256.add U256.max_value U256.one);
  Alcotest.check_raises "checked overflow" U256.Overflow (fun () ->
      ignore (U256.checked_add U256.max_value U256.one))

let test_sub_borrow_chain () =
  let x = U256.shift_left U256.one 128 in
  Alcotest.(check string) "borrow chain" "340282366920938463463374607431768211455"
    (U256.to_string (U256.sub x U256.one));
  Alcotest.check_raises "checked underflow" U256.Overflow (fun () ->
      ignore (U256.checked_sub U256.zero U256.one))

let test_mul_known () =
  Alcotest.(check string) "mul"
    "121932631356500531591068431581771069347203169112635269"
    (U256.to_string
       (U256.mul (u "123456789123456789123456789") (u "987654321987654321987654321")));
  Alcotest.check_raises "checked mul overflow" U256.Overflow (fun () ->
      ignore (U256.checked_mul U256.max_value (U256.of_int 2)))

let test_div_known () =
  let q, r = U256.divmod (u "1000000000000000000000000000000") (u "7777777777777") in
  Alcotest.(check string) "quotient" "128571428571441428" (U256.to_string q);
  Alcotest.(check string) "remainder" "4444444454444" (U256.to_string r);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (U256.div U256.one U256.zero))

let test_div_normalization_edge () =
  (* Divisors with a high leading digit exercise the Knuth-D qhat
     correction path. *)
  let a = u "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff" in
  let b = u "0xffffffff00000000ffffffff" in
  let q, r = U256.divmod a b in
  Alcotest.check check_u256 "identity" a (U256.add (U256.mul q b) r);
  Alcotest.(check bool) "r < b" true (U256.lt r b)

let test_mul_div () =
  (* floor(a*b/c) where a*b overflows 256 bits. *)
  let a = U256.shift_left U256.one 200 in
  let b = U256.shift_left U256.one 100 in
  let c = U256.shift_left U256.one 60 in
  Alcotest.check check_u256 "muldiv 512-bit" (U256.shift_left U256.one 240)
    (U256.mul_div a b c);
  Alcotest.check_raises "muldiv overflow" U256.Overflow (fun () ->
      ignore (U256.mul_div U256.max_value U256.max_value U256.one))

let test_mul_div_rounding () =
  Alcotest.check check_u256 "exact" (U256.of_int 6)
    (U256.mul_div_rounding_up (U256.of_int 4) (U256.of_int 3) (U256.of_int 2));
  Alcotest.check check_u256 "rounds up" (U256.of_int 7)
    (U256.mul_div_rounding_up (U256.of_int 13) U256.one (U256.of_int 2));
  Alcotest.check check_u256 "floor" (U256.of_int 6)
    (U256.mul_div (U256.of_int 13) U256.one (U256.of_int 2))

let test_shifts () =
  let x = u "0x123456789abcdef" in
  Alcotest.check check_u256 "left-right" x (U256.shift_right (U256.shift_left x 137) 137);
  Alcotest.check check_u256 "shift out" U256.zero (U256.shift_left x 256);
  Alcotest.check check_u256 "right out" U256.zero (U256.shift_right x 256)

let test_bits () =
  Alcotest.(check int) "bits 0" 0 (U256.bits U256.zero);
  Alcotest.(check int) "bits 1" 1 (U256.bits U256.one);
  Alcotest.(check int) "bits 2^255" 256 (U256.bits (U256.shift_left U256.one 255));
  Alcotest.(check bool) "bit test" true (U256.bit (U256.shift_left U256.one 93) 93)

let test_sqrt_known () =
  Alcotest.check check_u256 "sqrt(10^40)" (U256.pow (U256.of_int 10) 20)
    (U256.sqrt (U256.pow (U256.of_int 10) 40));
  Alcotest.check check_u256 "sqrt 0" U256.zero (U256.sqrt U256.zero);
  Alcotest.check check_u256 "sqrt 3" U256.one (U256.sqrt (U256.of_int 3))

let test_bytes_be () =
  let x = u "0x0102030405" in
  let b = U256.to_bytes_be x in
  Alcotest.(check int) "length" 32 (Bytes.length b);
  Alcotest.(check char) "last byte" '\x05' (Bytes.get b 31);
  Alcotest.check check_u256 "roundtrip" x (U256.of_bytes_be b);
  Alcotest.check check_u256 "short input" (U256.of_int 0x0102)
    (U256.of_bytes_be (Bytes.of_string "\x01\x02"))

let test_mul_mod () =
  let p = u "21888242871839275222246405745257275088548364400416034343698204186575808495617" in
  let a = U256.sub p U256.one in
  (* (p-1)^2 mod p = 1 *)
  Alcotest.check check_u256 "fermat square" U256.one (U256.mul_mod a a p)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let pair = QCheck2.Gen.pair gen_u256 gen_u256

let props =
  [ prop "add commutative" pair (fun (a, b) -> U256.equal (U256.add a b) (U256.add b a));
    prop "add associative" (QCheck2.Gen.triple gen_u256 gen_u256 gen_u256)
      (fun (a, b, c) ->
        U256.equal (U256.add (U256.add a b) c) (U256.add a (U256.add b c)));
    prop "mul commutative" pair (fun (a, b) -> U256.equal (U256.mul a b) (U256.mul b a));
    prop "distributivity" (QCheck2.Gen.triple gen_u256 gen_u256 gen_u256)
      (fun (a, b, c) ->
        U256.equal (U256.mul a (U256.add b c)) (U256.add (U256.mul a b) (U256.mul a c)));
    prop "sub inverse of add" pair (fun (a, b) -> U256.equal (U256.sub (U256.add a b) b) a);
    prop "division identity" (QCheck2.Gen.pair gen_u256 gen_nonzero) (fun (a, b) ->
        let q, r = U256.divmod a b in
        U256.equal a (U256.add (U256.mul q b) r) && U256.lt r b);
    prop "mul_div vs divmod when in range" (QCheck2.Gen.pair gen_u256 gen_nonzero)
      (fun (a, b) -> U256.equal (U256.mul_div a b b) a);
    prop "mul_mod matches divmod" (QCheck2.Gen.triple gen_u256 gen_u256 gen_nonzero)
      (fun (a, b, c) ->
        let p = U256.mul_mod a b c in
        U256.lt p c);
    prop "decimal roundtrip" gen_u256 (fun a ->
        U256.equal a (U256.of_string (U256.to_string a)));
    prop "hex roundtrip" gen_u256 (fun a -> U256.equal a (U256.of_hex (U256.to_hex a)));
    prop "bytes roundtrip" gen_u256 (fun a ->
        U256.equal a (U256.of_bytes_be (U256.to_bytes_be a)));
    prop "sqrt bounds" gen_u256 (fun a ->
        let s = U256.sqrt a in
        U256.le (U256.mul s s) a
        && (U256.equal s U256.max_value
           || U256.gt (U256.mul (U256.add s U256.one) (U256.add s U256.one)) a
           || U256.lt (U256.mul (U256.add s U256.one) (U256.add s U256.one)) s));
    prop "compare antisymmetric" pair (fun (a, b) ->
        U256.compare a b = -U256.compare b a);
    prop "shift_left is mul by 2^k"
      QCheck2.Gen.(pair gen_u256 (int_range 0 64))
      (fun (a, k) ->
        U256.equal (U256.shift_left a k) (U256.mul a (U256.pow U256.two k)));
    prop "logical ops involution" pair (fun (a, b) ->
        U256.equal (U256.logxor (U256.logxor a b) b) a
        && U256.equal (U256.lognot (U256.lognot a)) a);
    prop "ceil - floor division is 0 or 1"
      (QCheck2.Gen.triple gen_u256 gen_u256 gen_nonzero)
      (fun (a, b, c) ->
        match U256.mul_div_rounding_up a b c with
        | up ->
          let down = U256.mul_div a b c in
          let diff = U256.sub up down in
          U256.is_zero diff || U256.equal diff U256.one
        | exception U256.Overflow -> true);
    prop "to_float monotone" pair (fun (a, b) ->
        let fa = U256.to_float a and fb = U256.to_float b in
        if U256.le a b then fa <= fb else fa >= fb) ]

(* ------------------------------------------------------------------ *)
(* Destination-passing variants and mul_div fast paths                  *)
(* ------------------------------------------------------------------ *)

(* Every in-place operation must agree with its allocating counterpart,
   including at the representation boundaries and under the aliasing
   patterns the interface allows. *)

let boundary_values =
  [ U256.zero; U256.one; U256.two; U256.max_value; U256.of_int 65535;
    U256.of_int 65536; U256.of_int max_int;
    U256.shift_left U256.one 128;
    U256.sub (U256.shift_left U256.one 128) U256.one ]

let test_into_boundaries () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let dst = U256.scratch () in
          U256.add_into ~dst a b;
          Alcotest.check check_u256 "add_into" (U256.add a b) dst;
          U256.sub_into ~dst a b;
          Alcotest.check check_u256 "sub_into" (U256.sub a b) dst;
          U256.mul_into ~dst a b;
          Alcotest.check check_u256 "mul_into" (U256.mul a b) dst)
        boundary_values)
    boundary_values

let test_into_aliasing () =
  let a = u "123456789123456789123456789123456789123456789" in
  let b = u "987654321987654321987654321987654321" in
  (* dst == first operand *)
  let c = U256.copy a in
  U256.add_into ~dst:c c b;
  Alcotest.check check_u256 "add dst==a" (U256.add a b) c;
  (* dst == second operand *)
  let c = U256.copy b in
  U256.add_into ~dst:c a c;
  Alcotest.check check_u256 "add dst==b" (U256.add a b) c;
  (* dst == both operands *)
  let c = U256.copy a in
  U256.add_into ~dst:c c c;
  Alcotest.check check_u256 "add dst==a==b" (U256.add a a) c;
  let c = U256.copy a in
  U256.sub_into ~dst:c c b;
  Alcotest.check check_u256 "sub dst==a" (U256.sub a b) c;
  let c = U256.copy b in
  U256.sub_into ~dst:c a c;
  Alcotest.check check_u256 "sub dst==b" (U256.sub a b) c;
  (* mul_into rejects aliasing (the product accumulates in place) *)
  let c = U256.copy a in
  Alcotest.check_raises "mul dst==a"
    (Invalid_argument "U256.mul_into: dst aliases an input") (fun () ->
      U256.mul_into ~dst:c c b)

let test_mul_div_fast_paths () =
  (* b == c short-circuit: a * b / b = a without touching the 512-bit
     path, but division by zero must still raise. *)
  let b = u "987654321987654321987654321987654321" in
  Alcotest.check check_u256 "b==c" U256.max_value (U256.mul_div U256.max_value b b);
  Alcotest.check_raises "b==c zero" Division_by_zero (fun () ->
      ignore (U256.mul_div U256.one U256.zero U256.zero));
  (* Small-operand path: everything fits in a native int. *)
  Alcotest.check check_u256 "small floor" (U256.of_int ((12345 * 6789) / 997))
    (U256.mul_div (U256.of_int 12345) (U256.of_int 6789) (U256.of_int 997));
  Alcotest.check check_u256 "small ceil"
    (U256.of_int (((12345 * 6789) + 996) / 997))
    (U256.mul_div_rounding_up (U256.of_int 12345) (U256.of_int 6789)
       (U256.of_int 997));
  (* Small product, huge divisor: quotient 0 (and 1 when rounding up). *)
  let huge = U256.shift_left U256.one 200 in
  Alcotest.check check_u256 "huge divisor floor" U256.zero
    (U256.mul_div (U256.of_int 12345) (U256.of_int 6789) huge);
  Alcotest.check check_u256 "huge divisor ceil" U256.one
    (U256.mul_div_rounding_up (U256.of_int 12345) (U256.of_int 6789) huge)

let gen_small_int = QCheck2.Gen.int_range 0 0x3FFFFFFF (* ~2^30: products fit *)

let into_props =
  [ prop "add_into matches add" pair (fun (a, b) ->
        let dst = U256.scratch () in
        U256.add_into ~dst a b;
        U256.equal dst (U256.add a b));
    prop "sub_into matches sub" pair (fun (a, b) ->
        let dst = U256.scratch () in
        U256.sub_into ~dst a b;
        U256.equal dst (U256.sub a b));
    prop "mul_into matches mul" pair (fun (a, b) ->
        let dst = U256.scratch () in
        U256.mul_into ~dst a b;
        U256.equal dst (U256.mul a b));
    prop "add_into aliased matches add" pair (fun (a, b) ->
        let c = U256.copy a in
        U256.add_into ~dst:c c b;
        U256.equal c (U256.add a b));
    prop "sub_into aliased matches sub" pair (fun (a, b) ->
        let c = U256.copy b in
        U256.sub_into ~dst:c a c;
        U256.equal c (U256.sub a b));
    prop "mul_div small operands exact"
      QCheck2.Gen.(triple gen_small_int gen_small_int (int_range 1 0x3FFFFFFF))
      (fun (a, b, c) ->
        let p = a * b in
        let floor = p / c in
        let ceil = if p mod c = 0 then floor else floor + 1 in
        U256.equal
          (U256.mul_div (U256.of_int a) (U256.of_int b) (U256.of_int c))
          (U256.of_int floor)
        && U256.equal
             (U256.mul_div_rounding_up (U256.of_int a) (U256.of_int b)
                (U256.of_int c))
             (U256.of_int ceil)) ]

(* ------------------------------------------------------------------ *)
(* Signed values                                                       *)
(* ------------------------------------------------------------------ *)

let check_signed = Alcotest.testable Signed.pp Signed.equal

let test_signed_basics () =
  Alcotest.check check_signed "neg neg" (Signed.of_int 5) (Signed.neg (Signed.of_int (-5)));
  Alcotest.check check_signed "add mixed" (Signed.of_int (-2))
    (Signed.add (Signed.of_int 3) (Signed.of_int (-5)));
  Alcotest.check check_signed "sub" (Signed.of_int 8)
    (Signed.sub (Signed.of_int 3) (Signed.of_int (-5)));
  Alcotest.(check bool) "zero not negative" false
    (Signed.is_negative (Signed.add (Signed.of_int 5) (Signed.of_int (-5))))

let test_signed_apply () =
  Alcotest.check check_u256 "apply pos" (U256.of_int 15)
    (Signed.apply (U256.of_int 10) (Signed.of_int 5));
  Alcotest.check check_u256 "apply neg" (U256.of_int 5)
    (Signed.apply (U256.of_int 10) (Signed.of_int (-5)));
  Alcotest.check_raises "apply below zero" U256.Overflow (fun () ->
      ignore (Signed.apply (U256.of_int 1) (Signed.of_int (-2))))

let signed_gen =
  QCheck2.Gen.(
    map2 (fun v neg -> if neg then Signed.neg_of_u256 v else Signed.of_u256 v) gen_u256 bool)

(* ------------------------------------------------------------------ *)
(* Montgomery contexts                                                 *)
(* ------------------------------------------------------------------ *)

(* The BN254 scalar-field order, the modulus the crypto layer specialises
   for — plus random odd moduli to show the context isn't order-specific. *)
let bn254_order =
  u "21888242871839275222246405745257275088548364400416034343698204186575808495617"

let gen_odd_modulus =
  QCheck2.Gen.map
    (fun x -> U256.logor (U256.add x U256.two) U256.one)
    gen_u256

let mont_props =
  let mul_agrees ctx m (a, b) =
    let a = U256.rem a m and b = U256.rem b m in
    let expect = U256.mul_mod a b m in
    let got =
      U256.Mont.of_mont ctx
        (U256.Mont.mul ctx (U256.Mont.to_mont ctx a) (U256.Mont.to_mont ctx b))
    in
    U256.equal got expect
  in
  let bn_ctx = U256.Mont.create ~modulus:bn254_order in
  [ prop "mont roundtrip (bn254)" gen_u256 (fun x ->
        let x = U256.rem x bn254_order in
        U256.equal x (U256.Mont.of_mont bn_ctx (U256.Mont.to_mont bn_ctx x)));
    prop "mont mul = mul_mod (bn254)" pair (mul_agrees bn_ctx bn254_order);
    prop "mont mul = mul_mod (random odd modulus)"
      (QCheck2.Gen.triple gen_odd_modulus gen_u256 gen_u256)
      (fun (m, a, b) ->
        let ctx = U256.Mont.create ~modulus:m in
        mul_agrees ctx m (a, b));
    prop "mont one is the identity" gen_u256 (fun x ->
        let xm = U256.Mont.to_mont bn_ctx (U256.rem x bn254_order) in
        U256.equal xm (U256.Mont.mul bn_ctx xm (U256.Mont.one bn_ctx))) ]

let test_mont_edges () =
  let m = bn254_order in
  let ctx = U256.Mont.create ~modulus:m in
  let check a b =
    let expect = U256.mul_mod a b m in
    let got =
      U256.Mont.of_mont ctx
        (U256.Mont.mul ctx (U256.Mont.to_mont ctx a) (U256.Mont.to_mont ctx b))
    in
    Alcotest.check check_u256
      (Printf.sprintf "%s * %s" (U256.to_string a) (U256.to_string b))
      expect got
  in
  let pm1 = U256.sub m U256.one in
  List.iter
    (fun (a, b) -> check a b)
    [ (U256.zero, U256.zero); (U256.zero, pm1); (U256.one, U256.one);
      (U256.one, pm1); (pm1, pm1); (U256.two, pm1) ];
  Alcotest.check check_u256 "modulus accessor" m (U256.Mont.modulus ctx);
  Alcotest.check_raises "even modulus rejected"
    (Invalid_argument "U256.Mont.create: modulus must be odd") (fun () ->
      ignore (U256.Mont.create ~modulus:(U256.of_int 10)));
  Alcotest.check_raises "zero modulus rejected"
    (Invalid_argument "U256.Mont.create: modulus must be odd") (fun () ->
      ignore (U256.Mont.create ~modulus:U256.zero))

(* ------------------------------------------------------------------ *)
(* Golden pins                                                         *)
(* ------------------------------------------------------------------ *)

(* Pinned float bit patterns and Q64.96 renderings. The simulator prints
   these floats, so the limb layout must not move a single rounding. The
   first eight inputs are ones where a Horner sum over 30-bit limbs would
   round differently from the base-2^16 sum. *)
let golden_to_float =
  [ ("4cf8d4dd5b4a6a45d280771c72534a8b2c8b04508564fa200f8e42b93be026", 0x4f533e353756d29aL);
    ("510571133b762a92e8af26a9aa02c8f154d5ed91bbe3a0b2a0dc4d32b78", 0x4e94415c44cedd8bL);
    ("13d344cd0db7a683e387de7e170856a7ed87f495ede42e0", 0x4b73d344cd0db7a6L);
    ("5fad669b9961eabc236bda23cd490819b7529d", 0x4957eb59a6e6587aL);
    ("3c063f26a0160d1c45e23c992099d1c9076cf6", 0x494e031f93500b06L);
    ("e9c52d597490c4b92dc17a04b8bed644c93f", 0x48ed38a5ab2e9219L);
    ("29d47a3efa4b211e8d1a8f7d44eeeee980", 0x4844ea3d1f7d2590L);
    ("389b613a3b1e71220ea499448d516c", 0x474c4db09d1d8f38L);
    ("b17d0fd93852dc4dea7a2224bbbd328c35b47ffc6a63d1c0a554070158b6eb15", 0x4fe62fa1fb270a5cL);
    ("3f47d560095a16723a4c0dbfd2806b3a27d4ba5f58d7ebc40ecabec1e035d2b6", 0x4fcfa3eab004ad0bL);
    ("d9f1eec4b4713dcde76cb67069ea67de7ebffaaae4876f42086a7545b137d00", 0x4fab3e3dd8968e28L);
    ("12af41e4b2e176911c57a29f5bde5381bb3db0937ea526ad2bd1392f638f6dd7", 0x4fb2af41e4b2e177L);
    ("0", 0x0L);
    ("1", 0x3ff0000000000000L);
    ("1fffffffffffff", 0x433fffffffffffffL);
    ("20000000000001", 0x4340000000000000L);
    ("40000000000001", 0x4350000000000000L);
    ("ffffffffffffffff", 0x43f0000000000000L);
    ("1000000000000000000000000", 0x45f0000000000000L);
    ("ffffffffffffffffffffffffffffffff", 0x47f0000000000000L);
    ("ffffffffffffffffffffffffffffffffffffffff", 0x49f0000000000000L);
    ("1000000000000000000000000000000000000000000000000", 0x4bf0000000000000L);
    ("8000000000000000000000000000000000000000000000000000000000000000", 0x4fe0000000000000L);
    ("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", 0x4ff0000000000000L);
    ("3fffffff3fffffff", 0x43cfffffffa00000L);
    ("fffffffffffffc00000000000000", 0x46f0000000000000L) ]

let golden_q96 =
  [ (-887272, 0x3bf000276a300000L); (-200000, 0x3f07d085d1011592L);
    (-50000, 0x3fb50431e5723ebeL); (-1, 0x3fefff972677adf6L);
    (0, 0x3ff0000000000000L); (1, 0x3ff000346d6ff116L); (7, 0x3ff0016f0c277c2bL);
    (50000, 0x40285ca846b5fe4fL); (200000, 0x40d57fdd2fe64445L);
    (887271, 0x43efff4853f7ef76L) ]

let test_golden_to_float () =
  List.iter
    (fun (h, bits) ->
      Alcotest.(check int64) h bits (Int64.bits_of_float (U256.to_float (U256.of_hex h))))
    golden_to_float

let test_golden_q96 () =
  List.iter
    (fun (tick, bits) ->
      Alcotest.(check int64) (string_of_int tick) bits
        (Int64.bits_of_float (Q96.to_float_q96 (Tick_math.get_sqrt_ratio_at_tick tick))))
    golden_q96

(* ------------------------------------------------------------------ *)
(* Differential tests against the base-2^16 reference                  *)
(* ------------------------------------------------------------------ *)

(* [U256_reference] is a sixteen-digit base-2^16 implementation of the
   same interface, kept in this directory as the oracle. Every function of the interface must agree
   with it on values, float bit patterns and raised exceptions. Values
   cross between the two through big-endian bytes; the bytes functions
   themselves are checked against the reference's to_hex/to_string. *)
module R = U256_reference

let to_r x = R.of_bytes_be (U256.to_bytes_be x)
let of_r r = U256.of_bytes_be (R.to_bytes_be r)

(* Operands are biased towards the new layout's edges: bits near
   multiples of 30, 2^240 +- k, 2^256 - 1 - k, and limbs that are zero,
   all ones or random. *)
let gen_ref =
  let open QCheck2.Gen in
  let pow2 k = R.shift_left R.one k in
  let random256 = map (fun s -> R.of_bytes_be (Bytes.of_string s)) (string_size (return 32)) in
  let edge_bit =
    oneof
      [ map2 (fun j d -> Int.max 0 (Int.min 255 ((30 * j) + d))) (int_range 0 8)
          (int_range (-2) 2);
        int_range 0 255 ]
  in
  let near_pow2 =
    map3
      (fun k d up -> if up then R.add (pow2 k) (R.of_int d) else R.sub (pow2 k) (R.of_int d))
      edge_bit (int_range 0 3) bool
  in
  let masked =
    map2
      (fun x w -> if w = 256 then x else R.logand x (R.sub (pow2 w) R.one))
      random256 (int_range 1 256)
  in
  let limb_pattern =
    map2
      (fun kinds x ->
        List.fold_left
          (fun acc (j, kind) ->
            let block = R.shift_left (R.of_int ((1 lsl 30) - 1)) (30 * j) in
            match kind with
            | 0 -> acc
            | 1 -> R.logor acc block
            | _ -> R.logor acc (R.logand x block))
          R.zero
          (List.mapi (fun j k -> (j, k)) kinds))
      (list_repeat 9 (int_range 0 2)) random256
  in
  frequency
    [ (3, masked); (2, near_pow2); (2, limb_pattern);
      (1, map (fun k -> R.add (pow2 240) (R.of_int k)) (int_range 0 1000));
      (1, map (fun k -> R.sub (pow2 240) (R.of_int k)) (int_range 1 1000));
      (1, map (fun k -> R.sub R.max_value (R.of_int k)) (int_range 0 1000));
      (1, map R.of_int (int_range 0 1000)) ]

let print_r r = "0x" ^ R.to_hex r
let print_pair (a, b) = print_r a ^ ", " ^ print_r b
let print_triple (a, b, c) = print_r a ^ ", " ^ print_r b ^ ", " ^ print_r c

let diff_prop ?(count = 500) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* Both outcomes, exceptions mapped onto one vocabulary. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception (U256.Overflow | R.Overflow) -> Error "Overflow"
  | exception Division_by_zero -> Error "Division_by_zero"
  | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)

let agree eq f g =
  match (outcome f, outcome g) with
  | Ok a, Ok b -> eq a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let same x r = Bytes.equal (U256.to_bytes_be x) (R.to_bytes_be r)
let agree_u f g = agree same f g
let agree_pair f g = agree (fun (q, r) (q', r') -> same q q' && same r r') f g

let lift1 f g (a : R.t) = agree_u (fun () -> f (of_r a)) (fun () -> g a)
let lift2 f g ((a : R.t), (b : R.t)) = agree_u (fun () -> f (of_r a) (of_r b)) (fun () -> g a b)

let lift3 f g ((a : R.t), (b : R.t), (c : R.t)) =
  agree_u (fun () -> f (of_r a) (of_r b) (of_r c)) (fun () -> g a b c)

let gen_pair = QCheck2.Gen.pair gen_ref gen_ref

(* Divisors and moduli: the general generator plus small values, so the
   single-limb and quotient-overflow paths are hit often. *)
let gen_divisor =
  QCheck2.Gen.(frequency [ (4, gen_ref); (1, map R.of_int (int_range 0 (1 lsl 30))) ])

let gen_muldiv = QCheck2.Gen.triple gen_ref gen_ref gen_divisor

let reference_props =
  let open QCheck2.Gen in
  [ diff_prop "bytes and strings = reference" gen_ref print_r (fun r ->
        let x = of_r r in
        Bytes.equal (U256.to_bytes_be x) (R.to_bytes_be r)
        && U256.to_hex x = R.to_hex r
        && U256.to_string x = R.to_string r
        && Format.asprintf "%a %a" U256.pp x U256.pp_hex x
           = Format.asprintf "%a %a" R.pp r R.pp_hex r
        && U256.equal (U256.of_hex (R.to_hex r)) x
        && U256.equal (U256.of_string (R.to_string r)) x
        && U256.equal (U256.of_string ("0x" ^ R.to_hex r)) x);
    diff_prop "of_bytes_be 0-33 bytes = reference"
      (string_size (int_range 0 33)) (fun s -> Printf.sprintf "%S" s)
      (fun s ->
        let b = Bytes.of_string s in
        agree_u (fun () -> U256.of_bytes_be b) (fun () -> R.of_bytes_be b));
    diff_prop "get/set_bytes_be at an offset = reference"
      (triple gen_ref (int_range 0 40) (int_range (-2) 50)) (fun (r, _, off) ->
        Printf.sprintf "%s at %d" (print_r r) off)
      (fun (r, extra, off) ->
        let buf = Bytes.make (32 + extra) '\xa5' in
        let ok_off = off >= 0 && off <= extra in
        (match U256.set_bytes_be buf off (of_r r) with
         | () -> ok_off && Bytes.equal (Bytes.sub buf off 32) (R.to_bytes_be r)
         | exception Invalid_argument _ -> not ok_off)
        &&
        match U256.get_bytes_be buf off with
        | x -> ok_off && same x r
        | exception Invalid_argument _ -> not ok_off);
    diff_prop "of_string/of_hex on arbitrary text = reference"
      (oneof
         [ string_size ~gen:(oneofl [ '0'; '1'; '7'; '9'; 'a'; 'f'; 'F'; 'x'; 'g' ])
             (int_range 0 90);
           map (fun r -> R.to_string r ^ "0") gen_ref ])
      (fun s -> Printf.sprintf "%S" s)
      (fun s ->
        agree_u (fun () -> U256.of_string s) (fun () -> R.of_string s)
        && agree_u (fun () -> U256.of_hex s) (fun () -> R.of_hex s));
    diff_prop "native conversions = reference"
      (triple gen_ref (int_range min_int max_int) (map Int64.of_int (int_range min_int max_int)))
      (fun (r, n, _) -> Printf.sprintf "%s, %d" (print_r r) n)
      (fun (r, n, n64) ->
        let x = of_r r in
        agree ( = ) (fun () -> U256.to_int x) (fun () -> R.to_int r)
        && U256.to_int_opt x = R.to_int_opt r
        && agree_u (fun () -> U256.of_int n) (fun () -> R.of_int n)
        && same (U256.of_int64 n64) (R.of_int64 n64)
        && same (U256.of_int64 (Int64.neg n64)) (R.of_int64 (Int64.neg n64)));
    diff_prop "to_float bit patterns = reference" gen_ref print_r (fun r ->
        Int64.equal
          (Int64.bits_of_float (U256.to_float (of_r r)))
          (Int64.bits_of_float (R.to_float r)));
    diff_prop "comparisons = reference" gen_pair print_pair (fun (a, b) ->
        let x = of_r a and y = of_r b in
        U256.compare x y = R.compare a b
        && U256.equal x y = R.equal a b
        && U256.lt x y = R.lt a b && U256.le x y = R.le a b
        && U256.gt x y = R.gt a b && U256.ge x y = R.ge a b
        && same (U256.min x y) (R.min a b)
        && same (U256.max x y) (R.max a b)
        && U256.is_zero x = R.is_zero a
        && U256.equal x x);
    diff_prop "add/sub family = reference" gen_pair print_pair (fun p ->
        lift2 U256.add R.add p && lift2 U256.checked_add R.checked_add p
        && lift2 U256.sub R.sub p && lift2 U256.checked_sub R.checked_sub p);
    diff_prop "mul family = reference" gen_pair print_pair (fun p ->
        lift2 U256.mul R.mul p && lift2 U256.checked_mul R.checked_mul p);
    diff_prop "division family = reference" (pair gen_ref gen_divisor) print_pair (fun p ->
        lift2 U256.div R.div p && lift2 U256.rem R.rem p
        && lift2 U256.div_rounding_up R.div_rounding_up p
        && agree_pair
             (fun () -> U256.divmod (of_r (fst p)) (of_r (snd p)))
             (fun () -> R.divmod (fst p) (snd p)));
    diff_prop "mul_div family and mul_mod = reference" gen_muldiv print_triple (fun t ->
        lift3 U256.mul_div R.mul_div t
        && lift3 U256.mul_div_rounding_up R.mul_div_rounding_up t
        && lift3 U256.mul_mod R.mul_mod t);
    diff_prop "mul_div with b == c = reference" (pair gen_ref gen_divisor) print_pair
      (fun (a, c) ->
        let x = of_r a and z = of_r c in
        agree same (fun () -> U256.mul_div x z z) (fun () -> R.mul_div a c c)
        && agree same
             (fun () -> U256.mul_div_rounding_up x z z)
             (fun () -> R.mul_div_rounding_up a c c));
    diff_prop "pow and sqrt = reference" (pair gen_ref (int_range (-1) 300))
      (fun (r, n) -> Printf.sprintf "%s, %d" (print_r r) n)
      (fun (r, n) ->
        lift1 (fun x -> U256.pow x n) (fun a -> R.pow a n) r && lift1 U256.sqrt R.sqrt r);
    diff_prop "bitwise = reference" (triple gen_ref gen_ref (int_range (-1) 300))
      (fun (a, b, k) -> Printf.sprintf "%s, %d" (print_pair (a, b)) k)
      (fun (a, b, k) ->
        lift2 U256.logand R.logand (a, b)
        && lift2 U256.logor R.logor (a, b)
        && lift2 U256.logxor R.logxor (a, b)
        && lift1 U256.lognot R.lognot a
        && lift1 (fun x -> U256.shift_left x k) (fun a -> R.shift_left a k) a
        && lift1 (fun x -> U256.shift_right x k) (fun a -> R.shift_right a k) a
        && U256.bit (of_r a) k = R.bit a k
        && U256.bits (of_r a) = R.bits a);
    diff_prop "*_into = reference, with aliasing" gen_pair print_pair (fun (a, b) ->
        let x = of_r a and y = of_r b in
        let into f g pick =
          let got =
            match pick with
            | `Fresh -> let dst = U256.scratch () in f ~dst x y; dst
            | `A -> let c = U256.copy x in f ~dst:c c y; c
            | `B -> let c = U256.copy y in f ~dst:c x c; c
            | `Both -> let c = U256.copy x in f ~dst:c c c; c
          in
          let expect = match pick with `Both -> g a a | _ -> g a b in
          same got expect
        in
        List.for_all
          (fun pick -> into U256.add_into R.add pick && into U256.sub_into R.sub pick)
          [ `Fresh; `A; `B; `Both ]
        && into U256.mul_into R.mul `Fresh
        && (let c = U256.copy x in
            agree ( = ) (fun () -> U256.mul_into ~dst:c c y)
              (fun () -> let c = R.copy a in R.mul_into ~dst:c c b))
        && (let c = U256.copy y in
            agree ( = ) (fun () -> U256.mul_into ~dst:c x c)
              (fun () -> let c = R.copy b in R.mul_into ~dst:c a c))
        && U256.is_zero (U256.scratch ())
        && U256.equal (U256.copy x) x
        && U256.copy x != x) ]

(* Montgomery with R = 2^270 against the reference's generic mul_mod, on
   random odd moduli including ones >= 2^255 (where the running value
   before the final subtraction exceeds 2^256). *)
let gen_modulus =
  QCheck2.Gen.(
    map2
      (fun x top ->
        let odd = R.logor x R.one in
        if top then R.logor odd (R.shift_left R.one 255) else odd)
      gen_ref bool)

let mont_reference_props =
  [ diff_prop ~count:300 "mont = reference mul_mod" (QCheck2.Gen.triple gen_modulus gen_ref gen_ref)
      print_triple (fun (m, a, b) ->
        let a = R.rem a m and b = R.rem b m in
        let ctx = U256.Mont.create ~modulus:(of_r m) in
        (* R mod m, from the reference: 2^255 * 2^15. *)
        let r_mod = R.mul_mod (R.shift_left R.one 255) (R.of_int (1 lsl 15)) m in
        let am = U256.Mont.to_mont ctx (of_r a) and bm = U256.Mont.to_mont ctx (of_r b) in
        let raw = U256.Mont.mul ctx (of_r a) (of_r b) in
        same (U256.Mont.modulus ctx) m
        && same (U256.Mont.one ctx) r_mod
        && same am (R.mul_mod a r_mod m)
        && same (U256.Mont.of_mont ctx am) a
        && R.lt (to_r raw) m
        && R.equal (R.mul_mod (to_r raw) r_mod m) (R.mul_mod a b m)
        && same (U256.Mont.of_mont ctx (U256.Mont.mul ctx am bm)) (R.mul_mod a b m));
    diff_prop ~count:100 "mont create rejects what the reference rejects" gen_ref print_r
      (fun m ->
        let m = R.logand m (R.lognot R.one) in
        agree (fun _ _ -> true)
          (fun () -> U256.Mont.create ~modulus:(of_r m))
          (fun () -> R.Mont.create ~modulus:m)) ]

let signed_props =
  [ prop "signed add commutative" (QCheck2.Gen.pair signed_gen signed_gen) (fun (a, b) ->
        Signed.equal (Signed.add a b) (Signed.add b a));
    prop "signed sub self is zero" signed_gen (fun a -> Signed.is_zero (Signed.sub a a));
    prop "signed neg involution" signed_gen (fun a -> Signed.equal a (Signed.neg (Signed.neg a))) ]

let () =
  Alcotest.run "u256"
    [ ( "unit",
        [ Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "decimal roundtrip" `Quick test_of_string_roundtrip;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "add carries" `Quick test_add_carry_chain;
          Alcotest.test_case "sub borrows" `Quick test_sub_borrow_chain;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "div known" `Quick test_div_known;
          Alcotest.test_case "div normalization edge" `Quick test_div_normalization_edge;
          Alcotest.test_case "mul_div 512-bit" `Quick test_mul_div;
          Alcotest.test_case "mul_div rounding" `Quick test_mul_div_rounding;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "sqrt known" `Quick test_sqrt_known;
          Alcotest.test_case "bytes" `Quick test_bytes_be;
          Alcotest.test_case "mul_mod" `Quick test_mul_mod ] );
      ("properties", props);
      ( "in-place",
        [ Alcotest.test_case "boundaries" `Quick test_into_boundaries;
          Alcotest.test_case "aliasing" `Quick test_into_aliasing;
          Alcotest.test_case "mul_div fast paths" `Quick test_mul_div_fast_paths ]
        @ into_props );
      ( "mont",
        Alcotest.test_case "edge values" `Quick test_mont_edges :: mont_props );
      ( "signed",
        [ Alcotest.test_case "basics" `Quick test_signed_basics;
          Alcotest.test_case "apply" `Quick test_signed_apply ]
        @ signed_props );
      ("reference", reference_props @ mont_reference_props);
      ( "golden",
        [ Alcotest.test_case "to_float bits" `Quick test_golden_to_float;
          Alcotest.test_case "q96 floats" `Quick test_golden_q96 ] ) ]
