(* FIPS 180-4 SHA-256 over 32-bit words held in native ints.

   Rotations work on the word duplicated into the upper half,
   [d = x lor (x lsl 32)], so [rotr x n = (d lsr n) land mask32] and a
   Σ costs three shifts. Bits above 31 never reach the low word through
   xor, and, or or add, so intermediate values carry junk up there and
   are masked only where they are stored or feed a rotation.

   The compression function runs against a reusable context (hash state,
   message schedule and one partial block), exposed both as a streaming
   [feed]/[finalize] API and as one-shot digests on a domain-local
   context — so hot callers like the Merkle tree build allocate no
   per-call working arrays and copy no padded input.

   Counter mode: the RNG hashes [key ^ le64 counter] for a fixed 32-byte
   key. That 40-byte message pads to one block whose words 0–7 are the
   key, and rounds 0–7 read only those words, so [counter_key] runs them
   once per key and every counter block runs rounds 8–63. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask32 = 0xFFFFFFFF
let block_bytes = 64

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let zero8 = Array.make 8 0

type ctx = {
  h : int array; (* 8 chaining words *)
  w : int array; (* 64-entry message schedule *)
  buf : Bytes.t; (* one partial block *)
  mutable fill : int; (* bytes buffered in [buf] *)
  mutable total : int; (* total message bytes fed so far *)
}

let init () =
  { h = Array.copy iv; w = Array.make 64 0; buf = Bytes.create block_bytes;
    fill = 0; total = 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.fill <- 0;
  ctx.total <- 0

(* Schedule words 16–63 from words 0–15. *)
let expand w =
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let dx = x lor (x lsl 32) and dy = y lor (y lsl 32) in
    let s0 = (dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3) in
    let s1 = (dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land mask32)
  done

let[@inline] sigma1 e =
  let d = e lor (e lsl 32) in
  (d lsr 6) lxor (d lsr 11) lxor (d lsr 25)

let[@inline] sigma0 a =
  let d = a lor (a lsl 32) in
  (d lsr 2) lxor (d lsr 13) lxor (d lsr 22)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land (b lor c)) lor (b land c)
let[@inline] kw k w t = Array.unsafe_get k t + Array.unsafe_get w t

(* Rounds [first..last] ([first] and [last + 1] multiples of 8) on
   working variables loaded from the first 8 slots of [s]; stores
   [base.(i) + var_i] into [dst] ([dst] may be [s]). [w] holds at least
   [last + 1] words. Each round writes only the two variables that
   change (the next round's [a] and [e]); unrolling by 8 rotates their
   roles back into place. *)
let rounds w first last s base dst =
  let k = k in
  let a = ref (Array.unsafe_get s 0) and b = ref (Array.unsafe_get s 1) in
  let c = ref (Array.unsafe_get s 2) and d = ref (Array.unsafe_get s 3) in
  let e = ref (Array.unsafe_get s 4) and f = ref (Array.unsafe_get s 5) in
  let g = ref (Array.unsafe_get s 6) and h = ref (Array.unsafe_get s 7) in
  for j = first / 8 to last / 8 do
    let t = 8 * j in
    let t1 = !h + sigma1 !e + ch !e !f !g + kw k w t in
    d := (!d + t1) land mask32;
    h := (t1 + sigma0 !a + maj !a !b !c) land mask32;
    let t1 = !g + sigma1 !d + ch !d !e !f + kw k w (t + 1) in
    c := (!c + t1) land mask32;
    g := (t1 + sigma0 !h + maj !h !a !b) land mask32;
    let t1 = !f + sigma1 !c + ch !c !d !e + kw k w (t + 2) in
    b := (!b + t1) land mask32;
    f := (t1 + sigma0 !g + maj !g !h !a) land mask32;
    let t1 = !e + sigma1 !b + ch !b !c !d + kw k w (t + 3) in
    a := (!a + t1) land mask32;
    e := (t1 + sigma0 !f + maj !f !g !h) land mask32;
    let t1 = !d + sigma1 !a + ch !a !b !c + kw k w (t + 4) in
    h := (!h + t1) land mask32;
    d := (t1 + sigma0 !e + maj !e !f !g) land mask32;
    let t1 = !c + sigma1 !h + ch !h !a !b + kw k w (t + 5) in
    g := (!g + t1) land mask32;
    c := (t1 + sigma0 !d + maj !d !e !f) land mask32;
    let t1 = !b + sigma1 !g + ch !g !h !a + kw k w (t + 6) in
    f := (!f + t1) land mask32;
    b := (t1 + sigma0 !c + maj !c !d !e) land mask32;
    let t1 = !a + sigma1 !f + ch !f !g !h + kw k w (t + 7) in
    e := (!e + t1) land mask32;
    a := (t1 + sigma0 !b + maj !b !c !d) land mask32
  done;
  Array.unsafe_set dst 0 ((Array.unsafe_get base 0 + !a) land mask32);
  Array.unsafe_set dst 1 ((Array.unsafe_get base 1 + !b) land mask32);
  Array.unsafe_set dst 2 ((Array.unsafe_get base 2 + !c) land mask32);
  Array.unsafe_set dst 3 ((Array.unsafe_get base 3 + !d) land mask32);
  Array.unsafe_set dst 4 ((Array.unsafe_get base 4 + !e) land mask32);
  Array.unsafe_set dst 5 ((Array.unsafe_get base 5 + !f) land mask32);
  Array.unsafe_set dst 6 ((Array.unsafe_get base 6 + !g) land mask32);
  Array.unsafe_set dst 7 ((Array.unsafe_get base 7 + !h) land mask32)

(* [Bytes.get_int32_be] without its bounds check: [compress] checks
   the whole block once. *)
external get_int32_ne_unsafe : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get_word_be_unsafe b i =
  let v = get_int32_ne_unsafe b i in
  Int32.to_int (if Sys.big_endian then v else swap32 v) land mask32

(* Compress the 64-byte block at [off] in [src] into the chaining state. *)
let compress ctx src off =
  if off < 0 || off > Bytes.length src - block_bytes then
    invalid_arg "Sha256.compress";
  let w = ctx.w in
  for t = 0 to 15 do
    Array.unsafe_set w t (get_word_be_unsafe src (off + (4 * t)))
  done;
  expand w;
  rounds w 0 63 ctx.h ctx.h ctx.h

let feed ctx input =
  let len = Bytes.length input in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  if ctx.fill > 0 then begin
    let take = Stdlib.min (block_bytes - ctx.fill) len in
    Bytes.blit input 0 ctx.buf ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := take;
    if ctx.fill = block_bytes then begin
      compress ctx ctx.buf 0;
      ctx.fill <- 0
    end
  end;
  while len - !pos >= block_bytes do
    compress ctx input !pos;
    pos := !pos + block_bytes
  done;
  if !pos < len then begin
    Bytes.blit input !pos ctx.buf 0 (len - !pos);
    ctx.fill <- len - !pos
  end

let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s)

(* Big-endian bytes of the first [len] (at most 32) bytes of the 8 words
   in [h], written at [off] in [dst]. *)
let output h dst off len =
  if len < 0 || len > 32 || off < 0 || off > Bytes.length dst - len then
    invalid_arg "Sha256.output";
  for i = 0 to (len / 4) - 1 do
    Bytes.set_int32_be dst (off + (4 * i)) (Int32.of_int (Array.unsafe_get h i))
  done;
  for i = len land lnot 3 to len - 1 do
    Bytes.unsafe_set dst (off + i)
      (Char.unsafe_chr
         ((Array.unsafe_get h (i / 4) lsr (24 - (8 * (i land 3)))) land 0xFF))
  done

let finalize ctx =
  (* Padding: 0x80, zeros, 64-bit big-endian bit length. *)
  let bitlen = ctx.total * 8 in
  Bytes.set ctx.buf ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > block_bytes - 8 then begin
    Bytes.fill ctx.buf ctx.fill (block_bytes - ctx.fill) '\000';
    compress ctx ctx.buf 0;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.buf ctx.fill (block_bytes - ctx.fill) '\000';
  Bytes.set_int64_be ctx.buf (block_bytes - 8) (Int64.of_int bitlen);
  compress ctx ctx.buf 0;
  let out = Bytes.create 32 in
  output ctx.h out 0 32;
  reset ctx;
  out

(* One-shot digests on a domain-local context: [digest]/[concat] take no
   callbacks, so they never run re-entrantly on a domain. *)
let dls_ctx : ctx Domain.DLS.key = Domain.DLS.new_key init

let digest input =
  let ctx = Domain.DLS.get dls_ctx in
  reset ctx;
  feed ctx input;
  finalize ctx

let digest_string s = digest (Bytes.unsafe_of_string s)
let hex s = Hex.of_bytes (digest_string s)

let concat parts =
  (* Digest of the concatenation, streamed — no intermediate copy. *)
  let ctx = Domain.DLS.get dls_ctx in
  reset ctx;
  List.iter (fun p -> feed ctx p) parts;
  finalize ctx

(* ------------------------------------------------------------------ *)
(* Counter mode                                                        *)
(* ------------------------------------------------------------------ *)

(* Slots 0–7: the working variables after round 7; slots 8–15: the key
   as message words 0–7. *)
type counter_key = int array

let counter_key key =
  if Bytes.length key <> 32 then invalid_arg "Sha256.counter_key";
  let ck = Array.make 16 0 in
  for i = 0 to 7 do
    ck.(8 + i) <- Int32.to_int (Bytes.get_int32_be key (4 * i)) land mask32
  done;
  let w = (Domain.DLS.get dls_ctx).w in
  Array.blit ck 8 w 0 8;
  rounds w 0 7 iv zero8 ck;
  ck

(* Big-endian word of 4 little-endian counter bytes. *)
let le_word x =
  ((x land 0xFF) lsl 24) lor ((x land 0xFF00) lsl 8)
  lor ((x lsr 8) land 0xFF00) lor ((x lsr 24) land 0xFF)

(* The digest of [key ^ le64 counter], left as 8 words in the
   domain-local context's chaining state (digest/concat reset it). *)
let counter_block ck counter =
  let ctx = Domain.DLS.get dls_ctx in
  let w = ctx.w in
  Array.blit ck 8 w 0 8;
  Array.unsafe_set w 8 (le_word (counter land mask32));
  Array.unsafe_set w 9 (le_word ((counter lsr 32) land mask32));
  Array.unsafe_set w 10 0x80000000;
  Array.fill w 11 4 0;
  Array.unsafe_set w 15 (40 * 8);
  expand w;
  rounds w 8 63 ck iv ctx.h;
  ctx.h

let counter_bits56 ck counter =
  let h = counter_block ck counter in
  (Array.unsafe_get h 0 lsl 24) lor (Array.unsafe_get h 1 lsr 8)

let counter_into ck counter dst off len =
  output (counter_block ck counter) dst off len
