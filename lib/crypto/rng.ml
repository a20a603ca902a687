(* SHA-256 in counter mode: draw [i] reads the digest of
   [seed ^ le64 i]. Scalar draws read their 56 bits straight from the
   first two digest words; byte draws copy digest bytes out. Both run on
   the stream's precomputed key (rounds 0–7 done once), so a scalar draw
   allocates nothing. *)

module U256 = Amm_math.U256

type t = { seed : bytes; key : Sha256.counter_key; mutable counter : int }

let of_seed seed = { seed; key = Sha256.counter_key seed; counter = 0 }
let create seed = of_seed (Sha256.digest_string seed)

let split t label =
  of_seed (Sha256.concat [ t.seed; Bytes.unsafe_of_string ("/" ^ label) ])

let next t =
  let c = t.counter in
  t.counter <- c + 1;
  c

(* The first 7 bytes of the next block, big-endian. *)
let bits56 t = Sha256.counter_bits56 t.key (next t)

let bytes t n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    let take = Stdlib.min 32 (n - !filled) in
    Sha256.counter_into t.key (next t) out !filled take;
    filled := !filled + take
  done;
  out

let u256 t = U256.of_bytes_be (bytes t 32)
let field t = Field.of_u256 (u256 t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* 56 uniform bits are plenty; modulo bias is negligible for the bounds
     used in the simulation (all far below 2^31). *)
  bits56 t mod n

let float t =
  float_of_int (bits56 t land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53)

let bool t = int t 2 = 1

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
