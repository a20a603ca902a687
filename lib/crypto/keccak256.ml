(* Keccak-f[1600] with 64-bit lanes; rate 1088 bits (136 bytes),
   capacity 512, output 256 bits, multi-rate padding with suffix 0x01.

   The 25 lanes live little-endian in a 200-byte [Bytes] state and are
   read and written with [get_int64_le]/[set_int64_le], so lane updates
   stay unboxed (an [int64 array] would box every write) and the digest
   is the first 32 state bytes as they lie. Theta's column parities and
   chi's row inputs are locals; rho+pi writes through a precomputed
   destination table into a second 200-byte buffer. The permutation runs
   against a reusable context, and one-shot [digest] runs on a
   domain-local context through the streaming [feed]/[finalize] API, so
   it neither allocates scratch nor copies the input into a padded
   buffer. *)

let rounds = 24
let rate_bytes = 136
let state_bytes = 200

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
     0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
     0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

let rotation_offsets =
  (* r[x][y] indexed as offsets.(x + 5*y) *)
  [| 0; 1; 62; 28; 27;
     36; 44; 6; 55; 20;
     3; 10; 43; 25; 39;
     41; 45; 15; 21; 8;
     18; 2; 61; 56; 14 |]

(* For lane i = x + 5y, rho+pi moves state lane i to b lane pi_dst.(i). *)
let pi_dst =
  Array.init 25 (fun i ->
      let x = i mod 5 and y = i / 5 in
      ((2 * x) + (3 * y)) mod 5 * 5 + y)

let[@inline] lane s i = Bytes.get_int64_le s (8 * i)
let[@inline] set_lane s i v = Bytes.set_int64_le s (8 * i) v

(* Rotation by 1..63; offset 0 only occurs at lane 0, handled apart. *)
let[@inline] rotl64 x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

type ctx = {
  st : Bytes.t; (* 25 lanes, little-endian *)
  b : Bytes.t; (* rho+pi output, 25 lanes *)
  buf : Bytes.t; (* one partial rate block *)
  mutable fill : int; (* bytes buffered in [buf] *)
}

let init () =
  { st = Bytes.make state_bytes '\000'; b = Bytes.create state_bytes;
    buf = Bytes.create rate_bytes; fill = 0 }

let reset ctx =
  Bytes.fill ctx.st 0 state_bytes '\000';
  ctx.fill <- 0

let[@inline] xor_lane s i v = set_lane s i (Int64.logxor (lane s i) v)

(* Theta's parity of column [x]. *)
let[@inline] col s x =
  Int64.logxor (lane s x)
    (Int64.logxor (lane s (x + 5))
       (Int64.logxor (lane s (x + 10))
          (Int64.logxor (lane s (x + 15)) (lane s (x + 20)))))

let[@inline] chi x y z = Int64.logxor x (Int64.logand (Int64.lognot y) z)

let keccak_f ctx =
  let st = ctx.st and b = ctx.b in
  for round = 0 to rounds - 1 do
    (* theta *)
    let c0 = col st 0 and c1 = col st 1 and c2 = col st 2 and c3 = col st 3 in
    let c4 = col st 4 in
    let d0 = Int64.logxor c4 (rotl64 c1 1) and d1 = Int64.logxor c0 (rotl64 c2 1) in
    let d2 = Int64.logxor c1 (rotl64 c3 1) and d3 = Int64.logxor c2 (rotl64 c4 1) in
    let d4 = Int64.logxor c3 (rotl64 c0 1) in
    for y = 0 to 4 do
      let i = 5 * y in
      xor_lane st i d0;
      xor_lane st (i + 1) d1;
      xor_lane st (i + 2) d2;
      xor_lane st (i + 3) d3;
      xor_lane st (i + 4) d4
    done;
    (* rho + pi *)
    set_lane b 0 (lane st 0);
    for i = 1 to 24 do
      set_lane b (Array.unsafe_get pi_dst i)
        (rotl64 (lane st i) (Array.unsafe_get rotation_offsets i))
    done;
    (* chi *)
    for y = 0 to 4 do
      let i = 5 * y in
      let b0 = lane b i and b1 = lane b (i + 1) and b2 = lane b (i + 2) in
      let b3 = lane b (i + 3) and b4 = lane b (i + 4) in
      set_lane st i (chi b0 b1 b2);
      set_lane st (i + 1) (chi b1 b2 b3);
      set_lane st (i + 2) (chi b2 b3 b4);
      set_lane st (i + 3) (chi b3 b4 b0);
      set_lane st (i + 4) (chi b4 b0 b1)
    done;
    (* iota *)
    xor_lane st 0 (Array.unsafe_get round_constants round)
  done

(* XOR one rate block at [off] in [src] into the state and permute. *)
let absorb ctx src off =
  for i = 0 to (rate_bytes / 8) - 1 do
    xor_lane ctx.st i (Bytes.get_int64_le src (off + (8 * i)))
  done;
  keccak_f ctx

let feed ctx input =
  let len = Bytes.length input in
  let pos = ref 0 in
  (* Top up a partially filled buffer first. *)
  if ctx.fill > 0 then begin
    let take = Stdlib.min (rate_bytes - ctx.fill) len in
    Bytes.blit input 0 ctx.buf ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := take;
    if ctx.fill = rate_bytes then begin
      absorb ctx ctx.buf 0;
      ctx.fill <- 0
    end
  end;
  (* Whole blocks straight from the input, no copy. *)
  while len - !pos >= rate_bytes do
    absorb ctx input !pos;
    pos := !pos + rate_bytes
  done;
  if !pos < len then begin
    Bytes.blit input !pos ctx.buf 0 (len - !pos);
    ctx.fill <- len - !pos
  end

let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s)

let finalize ctx =
  (* Multi-rate padding 0x01 .. 0x80 in the tail block. *)
  Bytes.fill ctx.buf ctx.fill (rate_bytes - ctx.fill) '\000';
  Bytes.set ctx.buf ctx.fill '\x01';
  Bytes.set ctx.buf (rate_bytes - 1)
    (Char.chr (Char.code (Bytes.get ctx.buf (rate_bytes - 1)) lor 0x80));
  absorb ctx ctx.buf 0;
  let out = Bytes.sub ctx.st 0 32 in
  (* Leave the context ready for the next message. *)
  reset ctx;
  out

(* One-shot digests reuse a domain-local context: [digest] never runs
   re-entrantly (it takes no callbacks), so sharing per domain is safe
   and saves the scratch allocations on every call. *)
let dls_ctx : ctx Domain.DLS.key = Domain.DLS.new_key init

let digest input =
  let ctx = Domain.DLS.get dls_ctx in
  reset ctx;
  feed ctx input;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)
let hex s = Hex.of_bytes (digest_string s)
