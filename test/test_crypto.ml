(* Hash test vectors, field laws, BLS and threshold signatures, VRF,
   Merkle trees, and the deterministic RNG. *)

open Amm_crypto
module U256 = Amm_math.U256

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)
let gen_msg = QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 300)))

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4 vectors)                                        *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  let cases =
    [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      (String.make 1000 'a',
       "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3") ]
  in
  List.iter (fun (input, expect) -> Alcotest.(check string) input expect (Sha256.hex input)) cases

let test_sha256_block_boundaries () =
  (* Lengths that straddle the 64-byte block and padding boundaries. *)
  List.iter
    (fun n ->
      let d = Sha256.digest (Bytes.make n 'x') in
      Alcotest.(check int) (Printf.sprintf "len %d" n) 32 (Bytes.length d))
    [ 54; 55; 56; 63; 64; 65; 119; 120; 128 ]

(* The original byte-wise compression function, kept as a test-local
   reference: a full SHA-256 over a padded copy of the input. *)
module Sha256_reference = struct
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
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let compress h w src off =
    for t = 0 to 15 do
      w.(t) <-
        (Char.code (Bytes.get src (off + (4 * t))) lsl 24)
        lor (Char.code (Bytes.get src (off + (4 * t) + 1)) lsl 16)
        lor (Char.code (Bytes.get src (off + (4 * t) + 2)) lsl 8)
        lor Char.code (Bytes.get src (off + (4 * t) + 3))
    done;
    for t = 16 to 63 do
      let w15 = w.(t - 15) and w2 = w.(t - 2) in
      let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
      let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land mask32 in
      hh := !g; g := !f; f := !e;
      e := (!d + t1) land mask32;
      d := !c; c := !b; b := !a;
      a := (t1 + t2) land mask32
    done;
    List.iteri
      (fun i v -> h.(i) <- (h.(i) + v) land mask32)
      [ !a; !b; !c; !d; !e; !f; !g; !hh ]

  let digest input =
    let len = Bytes.length input in
    let padded_len = (len + 9 + 63) / 64 * 64 in
    let msg = Bytes.make padded_len '\000' in
    Bytes.blit input 0 msg 0 len;
    Bytes.set msg len '\x80';
    for i = 0 to 7 do
      Bytes.set msg (padded_len - 1 - i) (Char.chr (((len * 8) lsr (8 * i)) land 0xFF))
    done;
    let h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
    in
    let w = Array.make 64 0 in
    for blk = 0 to (padded_len / 64) - 1 do
      compress h w msg (64 * blk)
    done;
    Bytes.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (24 - (8 * (i mod 4)))) land 0xFF))
end

(* [digest], [concat] and chunked [feed] all equal the reference. *)
let reference_props =
  [ prop "sha256 digest = reference" gen_msg (fun m ->
        Bytes.equal (Sha256.digest m) (Sha256_reference.digest m));
    prop "sha256 concat = reference"
      QCheck2.Gen.(pair gen_msg (int_range 0 300))
      (fun (m, cut) ->
        let cut = Stdlib.min cut (Bytes.length m) in
        Bytes.equal
          (Sha256.concat
             [ Bytes.sub m 0 cut; Bytes.empty; Bytes.sub m cut (Bytes.length m - cut) ])
          (Sha256_reference.digest m));
    prop "sha256 chunked feed = reference"
      QCheck2.Gen.(pair gen_msg (int_range 1 70))
      (fun (m, chunk) ->
        let ctx = Sha256.init () in
        let len = Bytes.length m in
        let pos = ref 0 in
        while !pos < len do
          let n = Stdlib.min chunk (len - !pos) in
          Sha256.feed ctx (Bytes.sub m !pos n);
          pos := !pos + n
        done;
        Bytes.equal (Sha256.finalize ctx) (Sha256_reference.digest m)) ]

(* ------------------------------------------------------------------ *)
(* Keccak-256 (Ethereum vectors)                                       *)
(* ------------------------------------------------------------------ *)

let test_keccak_vectors () =
  let cases =
    [ ("", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
      ("abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
      ("hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8");
      ("testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02") ]
  in
  List.iter (fun (input, expect) -> Alcotest.(check string) input expect (Keccak256.hex input)) cases

let test_keccak_rate_boundaries () =
  (* The 136-byte rate boundary and multiples. *)
  List.iter
    (fun n ->
      let d = Keccak256.digest (Bytes.make n 'k') in
      Alcotest.(check int) (Printf.sprintf "len %d" n) 32 (Bytes.length d))
    [ 135; 136; 137; 271; 272; 273 ]

let hash_props =
  [ prop "sha256 deterministic" gen_msg (fun m ->
        Bytes.equal (Sha256.digest m) (Sha256.digest m));
    prop "keccak deterministic" gen_msg (fun m ->
        Bytes.equal (Keccak256.digest m) (Keccak256.digest m));
    prop "sha256 avalanche" gen_msg (fun m ->
        let m' = Bytes.cat m (Bytes.of_string "x") in
        not (Bytes.equal (Sha256.digest m) (Sha256.digest m'))) ]

(* Streaming digests must equal the one-shot digest of the concatenation,
   at any chunk boundary — including mid-block and block-aligned splits. *)
let gen_long_msg =
  QCheck2.Gen.(map Bytes.of_string (string_size (int_range 0 400)))

let streaming_props =
  let split_prop name init feed finalize digest =
    prop name
      QCheck2.Gen.(pair gen_long_msg (int_range 0 400))
      (fun (m, cut) ->
        let cut = Stdlib.min cut (Bytes.length m) in
        let ctx = init () in
        feed ctx (Bytes.sub m 0 cut);
        feed ctx (Bytes.sub m cut (Bytes.length m - cut));
        Bytes.equal (finalize ctx) (digest m))
  in
  [ split_prop "sha256 streaming = one-shot" Sha256.init Sha256.feed
      Sha256.finalize Sha256.digest;
    split_prop "keccak streaming = one-shot" Keccak256.init Keccak256.feed
      Keccak256.finalize Keccak256.digest;
    prop "sha256 concat = digest of concatenation"
      QCheck2.Gen.(list_size (int_range 0 5) gen_msg)
      (fun parts ->
        Bytes.equal (Sha256.concat parts)
          (Sha256.digest (Bytes.concat Bytes.empty parts)));
    prop "streaming context reusable across messages"
      (QCheck2.Gen.pair gen_long_msg gen_long_msg)
      (fun (m1, m2) ->
        let ctx = Keccak256.init () in
        Keccak256.feed ctx m1;
        let d1 = Keccak256.finalize ctx in
        Keccak256.feed ctx m2;
        let d2 = Keccak256.finalize ctx in
        Bytes.equal d1 (Keccak256.digest m1)
        && Bytes.equal d2 (Keccak256.digest m2)) ]

(* ------------------------------------------------------------------ *)
(* Field                                                               *)
(* ------------------------------------------------------------------ *)

let gen_field =
  QCheck2.Gen.(map (fun s -> Field.of_bytes (Bytes.of_string s)) (string_size (return 16)))

let field_props =
  [ prop "field inverse" gen_field (fun a ->
        Field.is_zero a || Field.equal Field.one (Field.mul a (Field.inv a)));
    prop "field add inverse" gen_field (fun a ->
        Field.is_zero (Field.add a (Field.neg a)));
    prop "field distributivity" (QCheck2.Gen.triple gen_field gen_field gen_field)
      (fun (a, b, c) ->
        Field.equal (Field.mul a (Field.add b c))
          (Field.add (Field.mul a b) (Field.mul a c))) ]

let test_field_pow () =
  let a = Field.of_int 7 in
  Alcotest.(check bool) "a^(p-1) = 1 (Fermat)" true
    (Field.equal Field.one (Field.pow a (U256.sub Field.order U256.one)))

(* The Montgomery/extended-GCD fast paths against their naive reference
   implementations (generic-division multiply, Fermat inversion). *)
let gen_exp = QCheck2.Gen.map U256.of_int (QCheck2.Gen.int_range 0 max_int)

let fast_vs_naive_props =
  [ prop "mul = mul_naive" (QCheck2.Gen.pair gen_field gen_field) (fun (a, b) ->
        Field.equal (Field.mul a b) (Field.mul_naive a b));
    prop "inv = inv_naive" gen_field (fun a ->
        Field.is_zero a || Field.equal (Field.inv a) (Field.inv_naive a));
    prop "inv is a multiplicative inverse" gen_field (fun a ->
        Field.is_zero a || Field.equal Field.one (Field.mul a (Field.inv a)));
    prop "pow = pow_naive" (QCheck2.Gen.pair gen_field gen_exp) (fun (a, e) ->
        Field.equal (Field.pow a e) (Field.pow_naive a e));
    prop "batch_inv = map inv"
      QCheck2.Gen.(array_size (int_range 1 12) gen_field)
      (fun xs ->
        let xs = Array.map (fun a -> if Field.is_zero a then Field.one else a) xs in
        let batched = Field.batch_inv xs in
        Array.for_all2 Field.equal batched (Array.map Field.inv xs)) ]

let test_field_inv_edges () =
  let pm1 = Field.of_u256 (U256.sub Field.order U256.one) in
  Alcotest.(check bool) "inv one" true (Field.equal Field.one (Field.inv Field.one));
  (* −1 is its own inverse. *)
  Alcotest.(check bool) "inv (order-1)" true (Field.equal pm1 (Field.inv pm1));
  Alcotest.(check bool) "inv matches naive at order-1" true
    (Field.equal (Field.inv pm1) (Field.inv_naive pm1));
  Alcotest.check_raises "inv zero raises" Division_by_zero (fun () ->
      ignore (Field.inv Field.zero));
  Alcotest.check_raises "batch_inv with zero raises" Division_by_zero (fun () ->
      ignore (Field.batch_inv [| Field.one; Field.zero |]))

(* ------------------------------------------------------------------ *)
(* BLS and threshold signatures                                        *)
(* ------------------------------------------------------------------ *)

let rng () = Rng.create "crypto-tests"

let test_bls_sign_verify () =
  let r = rng () in
  let sk, pk = Bls.keygen r in
  let msg = Bytes.of_string "epoch 7 summary" in
  let s = Bls.sign sk msg in
  Alcotest.(check bool) "valid" true (Bls.verify pk msg s);
  Alcotest.(check bool) "wrong message" false (Bls.verify pk (Bytes.of_string "other") s);
  let _, pk2 = Bls.keygen r in
  Alcotest.(check bool) "wrong key" false (Bls.verify pk2 msg s)

let test_bls_sizes () =
  let sk, pk = Bls.keygen (rng ()) in
  Alcotest.(check int) "sig 64B" 64
    (Bytes.length (Bls.signature_to_bytes (Bls.sign sk (Bytes.of_string "m"))));
  Alcotest.(check int) "vk 128B" 128 (Bytes.length (Bls.public_key_to_bytes pk))

let test_bls_aggregate () =
  let r = rng () in
  let msg = Bytes.of_string "m" in
  let keys = List.init 5 (fun _ -> Bls.keygen r) in
  let sigs = List.map (fun (sk, _) -> Bls.sign sk msg) keys in
  let agg_sig = Bls.aggregate sigs in
  (* Aggregate verifies under the aggregated public key in the ideal
     group: sum of keys = key of summed secrets. *)
  let agg_pk =
    List.fold_left (fun acc (_, pk) -> Group.g2_add acc pk) Group.g2_zero keys
  in
  Alcotest.(check bool) "aggregate verifies" true (Bls.verify agg_pk msg agg_sig)

let test_threshold_basic () =
  let vk, _, shares = Bls.dkg (rng ()) ~n:10 ~threshold:7 in
  let msg = Bytes.of_string "sync payload" in
  let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
  (match Bls.combine ~threshold:7 partials with
  | Some s -> Alcotest.(check bool) "full set verifies" true (Bls.verify vk msg s)
  | None -> Alcotest.fail "combine failed");
  (* Any 7-subset works. *)
  let subset = List.filteri (fun i _ -> i mod 3 <> 1) partials in
  (match Bls.combine ~threshold:7 subset with
  | Some s -> Alcotest.(check bool) "subset verifies" true (Bls.verify vk msg s)
  | None -> Alcotest.fail "subset combine failed")

let test_threshold_too_few () =
  let _, _, shares = Bls.dkg (rng ()) ~n:10 ~threshold:7 in
  let msg = Bytes.of_string "m" in
  let partials = List.filteri (fun i _ -> i < 6) (List.map (fun s -> Bls.partial_sign s msg) shares) in
  Alcotest.(check bool) "6 < 7 rejected" true (Bls.combine ~threshold:7 partials = None)

let test_threshold_duplicates_dont_count () =
  let _, _, shares = Bls.dkg (rng ()) ~n:10 ~threshold:4 in
  let msg = Bytes.of_string "m" in
  let p = Bls.partial_sign (List.hd shares) msg in
  Alcotest.(check bool) "duplicates rejected" true
    (Bls.combine ~threshold:4 [ p; p; p; p ] = None)

let test_threshold_wrong_subset_signature_rejected () =
  let vk, _, shares = Bls.dkg (rng ()) ~n:7 ~threshold:5 in
  let msg = Bytes.of_string "m" in
  let other = Bytes.of_string "forged" in
  let partials = List.map (fun s -> Bls.partial_sign s other) shares in
  match Bls.combine ~threshold:5 partials with
  | Some s -> Alcotest.(check bool) "signature on other message" false (Bls.verify vk msg s)
  | None -> Alcotest.fail "combine failed"

let threshold_subset_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"any t-subset combines, smaller never"
       QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 9))
       (fun (salt, drop) ->
         let r = Rng.create (Printf.sprintf "subset-%d" salt) in
         let n = 9 and threshold = 5 in
         let vk, _, shares = Bls.dkg r ~n ~threshold in
         let msg = Bytes.of_string (string_of_int salt) in
         let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
         (* Remove up to [drop] distinct shares. *)
         let kept = List.filteri (fun i _ -> i >= drop) partials in
         match Bls.combine ~threshold kept with
         | Some sigma -> List.length kept >= threshold && Bls.verify vk msg sigma
         | None -> List.length kept < threshold))

let test_threshold_withheld_any_subset () =
  (* Degraded-quorum signing: when members withhold shares, any [t]
     *distinct* survivors reconstruct — including non-contiguous index
     sets — and every such subset yields the identical group signature
     (Lagrange interpolation is unique in the exponent). *)
  let n = 10 and threshold = 7 in
  let vk, _, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "degraded quorum" in
  let partials = Array.of_list (List.map (fun s -> Bls.partial_sign s msg) shares) in
  let pick idxs = List.map (fun i -> partials.(i)) idxs in
  let subsets = [ [ 0; 1; 2; 3; 4; 5; 6 ]; [ 3; 4; 5; 6; 7; 8; 9 ];
                  [ 0; 2; 4; 5; 6; 8; 9 ]; [ 9; 7; 5; 3; 1; 0; 2 ] ] in
  let sigs =
    List.map
      (fun idxs ->
        match Bls.combine ~threshold (pick idxs) with
        | Some s ->
          Alcotest.(check bool) "subset verifies" true (Bls.verify vk msg s);
          s
        | None -> Alcotest.fail "t distinct shares must combine")
      subsets
  in
  let first = Bls.signature_to_bytes (List.hd sigs) in
  List.iter
    (fun s ->
      Alcotest.(check bool) "all subsets give the same signature" true
        (Bytes.equal first (Bls.signature_to_bytes s)))
    (List.tl sigs)

let test_threshold_withheld_below_quorum () =
  (* One withholder too many: t - 1 distinct shares fail, and padding the
     survivor set with duplicated partials must not sneak past the
     distinctness check. *)
  let n = 10 and threshold = 7 in
  let _, _, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "withheld" in
  let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
  let survivors = List.filteri (fun i _ -> i mod 3 <> 0) partials in
  Alcotest.(check int) "six survivors" 6 (List.length survivors);
  Alcotest.(check bool) "t-1 distinct rejected" true
    (Bls.combine ~threshold survivors = None);
  let padded = List.hd survivors :: List.hd survivors :: survivors in
  Alcotest.(check bool) "duplicates don't restore quorum" true
    (Bls.combine ~threshold padded = None)

let test_threshold_share_indices () =
  let n = 6 and threshold = 4 in
  let _, _, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "indices" in
  List.iter
    (fun s ->
      Alcotest.(check int) "partial carries its share's index"
        (Bls.share_index s)
        (Bls.partial_index (Bls.partial_sign s msg)))
    shares;
  let idxs = List.sort_uniq compare (List.map Bls.share_index shares) in
  Alcotest.(check int) "indices distinct" n (List.length idxs)

let test_dkg_bad_threshold () =
  Alcotest.check_raises "threshold > n" (Invalid_argument "Bls.dkg: bad threshold")
    (fun () -> ignore (Bls.dkg (rng ()) ~n:3 ~threshold:4))

(* Cached/batch-inverted combine against the pre-optimisation reference,
   across random signer subsets and thresholds. Running the same subset
   twice also exercises the λ-cache hit path. *)
let combine_vs_reference_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"combine = combine_reference"
       QCheck2.Gen.(triple (int_range 0 1000) (int_range 1 8) (int_range 0 9))
       (fun (salt, threshold, drop) ->
         let r = Rng.create (Printf.sprintf "combine-ref-%d" salt) in
         let n = 9 in
         let threshold = Stdlib.min threshold n in
         let _, _, shares = Bls.dkg r ~n ~threshold in
         let msg = Bytes.of_string (Printf.sprintf "ref-%d" salt) in
         let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
         let kept = List.filteri (fun i _ -> i >= drop) partials in
         let fast = Bls.combine ~threshold kept in
         let fast2 = Bls.combine ~threshold kept in
         let slow = Bls.combine_reference ~threshold kept in
         match (fast, fast2, slow) with
         | Some a, Some a', Some b ->
           Bytes.equal (Bls.signature_to_bytes a) (Bls.signature_to_bytes b)
           && Bytes.equal (Bls.signature_to_bytes a) (Bls.signature_to_bytes a')
         | None, None, None -> List.length kept < threshold
         | _ -> false))

let test_verify_partial () =
  let n = 10 and threshold = 7 in
  let _, commitments, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "partial check" in
  let partials = List.map (fun s -> Bls.partial_sign s msg) shares in
  List.iter
    (fun p ->
      Alcotest.(check bool) "honest partial accepted" true
        (Bls.verify_partial ~commitments msg p))
    partials;
  List.iter
    (fun p ->
      Alcotest.(check bool) "tampered partial rejected" false
        (Bls.verify_partial ~commitments msg (Bls.tamper_partial p)))
    partials;
  (* A partial on a different message fails against this message. *)
  let other = Bls.partial_sign (List.hd shares) (Bytes.of_string "other") in
  Alcotest.(check bool) "wrong-message partial rejected" false
    (Bls.verify_partial ~commitments msg other)

let test_combine_rejects_tampered () =
  (* End-to-end: filter partials through verify_partial, then combine the
     survivors — the tampered share neither blocks nor corrupts signing. *)
  let n = 10 and threshold = 7 in
  let vk, commitments, shares = Bls.dkg (rng ()) ~n ~threshold in
  let msg = Bytes.of_string "filter then combine" in
  let partials =
    List.mapi
      (fun i s ->
        let p = Bls.partial_sign s msg in
        if i < 2 then Bls.tamper_partial p else p)
      shares
  in
  let honest = List.filter (Bls.verify_partial ~commitments msg) partials in
  Alcotest.(check int) "two tampered partials caught" (n - 2) (List.length honest);
  match Bls.combine ~threshold honest with
  | Some s -> Alcotest.(check bool) "survivors sign" true (Bls.verify vk msg s)
  | None -> Alcotest.fail "honest quorum must combine"

let test_member_key_vk () =
  (* The commitments' constant term is the committee verification key:
     member_key at x = 0 recovers vk. *)
  let vk, commitments, _ = Bls.dkg (rng ()) ~n:6 ~threshold:4 in
  Alcotest.(check bool) "member_key 0 = vk" true
    (Group.g2_equal (Bls.member_key commitments 0) vk)

let hash_to_g1_cache_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"hash_to_g1 = uncached" gen_msg
       (fun m ->
         Group.g1_equal (Group.hash_to_g1 m) (Group.hash_to_g1_uncached m)
         (* hit path: the second call reads the memo *)
         && Group.g1_equal (Group.hash_to_g1 m) (Group.hash_to_g1_uncached m)))

(* ------------------------------------------------------------------ *)
(* VRF                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vrf_roundtrip () =
  let sk, pk = Bls.keygen (rng ()) in
  let input = Bytes.of_string "election seed" in
  let out, proof = Vrf.evaluate sk input in
  Alcotest.(check bool) "verifies" true (Vrf.verify pk input proof = Some out);
  Alcotest.(check bool) "wrong input" true (Vrf.verify pk (Bytes.of_string "x") proof = None)

let test_vrf_deterministic () =
  let sk, _ = Bls.keygen (rng ()) in
  let input = Bytes.of_string "seed" in
  let o1, _ = Vrf.evaluate sk input in
  let o2, _ = Vrf.evaluate sk input in
  Alcotest.(check bool) "same output" true (Bytes.equal o1 o2)

let test_vrf_output_below () =
  let out = Bytes.make 32 '\000' in
  Alcotest.(check bool) "0 below 0.5" true (Vrf.output_below out 0.5);
  let top = Bytes.make 32 '\xff' in
  Alcotest.(check bool) "max not below 0.999" false (Vrf.output_below top 0.999)

(* ------------------------------------------------------------------ *)
(* Merkle                                                              *)
(* ------------------------------------------------------------------ *)

let leaves n = List.init n (fun i -> Bytes.of_string (Printf.sprintf "leaf-%d" i))

let test_merkle_all_proofs () =
  List.iter
    (fun n ->
      let l = leaves n in
      let t = Merkle.of_leaves l in
      List.iteri
        (fun i leaf ->
          match Merkle.prove t i with
          | Some p ->
            Alcotest.(check bool)
              (Printf.sprintf "n=%d i=%d" n i)
              true
              (Merkle.verify ~root:(Merkle.root t) ~leaf p)
          | None -> Alcotest.failf "no proof for %d/%d" i n)
        l)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33 ]

let test_merkle_bad_proof () =
  let t = Merkle.of_leaves (leaves 8) in
  match Merkle.prove t 3 with
  | Some p ->
    Alcotest.(check bool) "wrong leaf fails" false
      (Merkle.verify ~root:(Merkle.root t) ~leaf:(Bytes.of_string "leaf-4") p)
  | None -> Alcotest.fail "no proof"

let test_merkle_empty_and_range () =
  let t = Merkle.of_leaves [] in
  Alcotest.(check bool) "empty root" true (Bytes.equal (Merkle.root t) Merkle.empty_root);
  let t8 = Merkle.of_leaves (leaves 8) in
  Alcotest.(check bool) "out of range" true (Merkle.prove t8 8 = None);
  Alcotest.(check bool) "negative" true (Merkle.prove t8 (-1) = None)

let test_merkle_proof_length () =
  let t = Merkle.of_leaves (leaves 16) in
  match Merkle.prove t 5 with
  | Some p -> Alcotest.(check int) "log2 16" 4 (Merkle.proof_length p)
  | None -> Alcotest.fail "no proof"

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)
(* ------------------------------------------------------------------ *)

(* Pinned streams: the first 32 values of each draw kind, each from a
   fresh stream, for [Rng.create "golden"] and one [split] child. The
   values were captured from the original byte-wise implementation; every
   simulation result depends on them, so a changed stream must fail here. *)
type golden = {
  ints : int list; (* Rng.int r max_int: the raw 56-bit draw *)
  floats : int list; (* Rng.float r scaled by 2^53 (exact) *)
  bools : string;
  u256s : string list; (* hex *)
  bytes12 : string list; (* hex of 32 draws of Rng.bytes r 12, concatenated *)
  bytes70 : string list; (* hex of the 33rd draw, Rng.bytes r 70 *)
}

let golden_root =
  { ints =
      [ 71359378078801704; 60415848777031804; 51642967445271125; 45439548616591998;
        32516600221503202; 45676687940977172; 54860606405618813; 12261874524559306;
        10537767804210118; 36331590087594075; 67380593149447709; 58849183424182135;
        32315059630835842; 38817909637817987; 41423889567580063; 13017684308754220;
        32799984297294761; 58528886872403731; 60385589722614142; 35611223762941306;
        11235218466822870; 16189026121560582; 59059168637578574; 23072882410029011;
        14279294793658590; 23488572066726740; 5087542186541494; 70242164696278323;
        10281079398919522; 1428411669693651; 59388732165750227; 51029107655190600 ];
    floats =
      [ 8308983295614760; 6372653248585852; 6606971171566165; 403552342887038;
        5495002457280226; 640691667272212; 817410877172861; 3254675269818314;
        1530568549469126; 302793068630107; 4330198366260765; 4805987895736183;
        5293461866612866; 2789112618854019; 5395092548616095; 4010485054013228;
        5778386533071785; 4485691343957779; 6342394194168190; 8589625998718330;
        2228019212081878; 7181826866819590; 5015973109132622; 5058483900547027;
        5272095538917598; 5474173557244756; 5087542186541494; 7191769913091379;
        1273880144178530; 1428411669693651; 5345536637304275; 5993111381485640 ];
    bools = "00100010011101101100000100010110";
    u256s =
      [ "fd84f9edc79f28484ee298f40baec1f78a2cb9586e88983c15a5e9382b9a47ac";
        "d6a3e4f528a07c26b5802857f914c3f095c5e9c2c09ce9a6e90712c246b08121";
        "b7790159b8f2555164df5e6d432b205f1d5c2aa6fca8e69f7b9f4bd2af499a7f";
        "a16f075a0bca7ed9ba3fee3ed5d356b31e53e0db50051bb9dd005c34ddb99226";
        "7385acf5818ee2141aaf11c5d51320824824c427c975a57aa5cff8cdb27439b1";
        "a246b4a73d0214453c9bc7cffc1ea8fc565b66152998b45c2fe50d05e050cf7b";
        "c2e76e4cf82c7d83f5e613246ac5ba93592b5043af7393b4bc1a79871059f231";
        "2b901c235117cac34243202d3e2ed60f907c9375dbc44063f834fc8af03adba8";
        "25700b42b20bc6c7124d01dd12a1669a1fc242ddac6ddedd35b89077899e4066";
        "811363814bd05b6423f4a89d931650143582a0919522c47dd467dbc8b424e400";
        "ef624adf6d8e1de5dae31e05cd002fa5b2f0b81e56dde32c6b22fd2643c64c3e";
        "d113054151f7773a40af390315d77bff880030d650c736759397d8dfa91d99c6";
        "72ce6022310882ca2d51c4547264af391889452c6f884a9d2f999c0b126e2519";
        "89e8aee2e2a683775e43d0432f2fc0f424445337680ea493f93175a83728bd92";
        "932acedee3ff9f6b2107a8e942d628cebe372edf434b5fe12cfcce4656e6880b";
        "2e3f83d1057f2c46661bb65a50e85d64df590d7fe3f9d55904027089977c62cc";
        "74876974adbba9298588bcc5e46574ec7e82a65675cddfecd8961506fe346454";
        "cfefb66720ef139717793143f4ed64390e58e2d646c2ab3ce6490c931c66ac52";
        "d6885fb8f8097e2581cb5f94205fbdae3e410f9ba074235c0aab56bc06a2a00e";
        "7e84382668357ae2787718a4a364a6fe1a864b430aa682069efe3e1184686016";
        "27ea5f25b05ad6b982552da7fb503db3ebcb18f5c962b8710decadc52614e47e";
        "3983d55f3c3206390e690c3deb00c6b8ec03d7b5e8b4a3429feb32c697829fd3";
        "d1d2003f5f6d4ec187e0c4596ab0f70fd89258d94369b75eb97d5080be2d6e35";
        "51f8aa0ffe7fd3601cfa92b60095087de3feced36c64bdfe81fe81afd0dd7413";
        "32baf165d1b0de22b9bed25c43278753f5e1765f36280af72dd55414eb5774e8";
        "5372bb5a518354cc46cd16490f174bfb51091060a7b8f2c3422d9c160e3faa6e";
        "121317b8cf01b60f4a277a975f1a6be7b6ae44c86ee1c89dfc7ed7eda2b8db23";
        "f98ce06af9e5336d324ed876900ed42cf58a2132ee5b724f702c77d8c10ebeeb";
        "248696557aed625b35922e8fecec236e6c5d17fc4c3ae59253fa2ed69fe7e877";
        "051322022a44d3b862238dffbf1664cb8e5a747b0e8886544889772e72e7b64c";
        "d2fdbcbc667dd375ec1831fe6b00f657ea74a232dd6bbc7fa3df4e4c303f448c";
        "b54ab3fafe2848958515da6ecc865ddce8aa1a4a95d481dcd9a8e28e83355685" ];
    bytes12 =
      [ "fd84f9edc79f28484ee298f4d6a3e4f528a07c26b5802857b7790159b8f25551";
        "64df5e6da16f075a0bca7ed9ba3fee3e7385acf5818ee2141aaf11c5a246b4a7";
        "3d0214453c9bc7cfc2e76e4cf82c7d83f5e613242b901c235117cac34243202d";
        "25700b42b20bc6c7124d01dd811363814bd05b6423f4a89def624adf6d8e1de5";
        "dae31e05d113054151f7773a40af390372ce6022310882ca2d51c45489e8aee2";
        "e2a683775e43d043932acedee3ff9f6b2107a8e92e3f83d1057f2c46661bb65a";
        "74876974adbba9298588bcc5cfefb66720ef139717793143d6885fb8f8097e25";
        "81cb5f947e84382668357ae2787718a427ea5f25b05ad6b982552da73983d55f";
        "3c3206390e690c3dd1d2003f5f6d4ec187e0c45951f8aa0ffe7fd3601cfa92b6";
        "32baf165d1b0de22b9bed25c5372bb5a518354cc46cd1649121317b8cf01b60f";
        "4a277a97f98ce06af9e5336d324ed876248696557aed625b35922e8f05132202";
        "2a44d3b862238dffd2fdbcbc667dd375ec1831feb54ab3fafe2848958515da6e" ];
    bytes70 =
      [ "d0b270315e2fb171ba7a4efd1c2d415ac60f1e0e951c195e47cc9f8575ef0efc";
        "651730ea262ea871c1f60a81bbb4f3a14c8acc2534600d6a497b401de878fddc";
        "c6e49c76ac0a" ] }

let golden_child =
  { ints =
      [ 30020073178005138; 10668216995087899; 13887654210207685; 64712475277189567;
        48461482143488622; 29121244858743896; 4535170441546221; 48234849414109887;
        26529330240916511; 33754064921375690; 8626581321046155; 64475778424678751;
        22243935405360221; 32905427812749991; 53070142501707521; 16201207285263758;
        29180139989272337; 9278649109017988; 18618398141725768; 62630465425572693;
        5459871974654662; 1009892058875214; 24921187333366948; 4813594839961689;
        68372428912235223; 22910342132472927; 24846429664704463; 67726122420215314;
        28585180569488559; 33126299596507610; 52566801048513858; 55717284546428949 ];
    floats =
      [ 2998475413782162; 1661017740346907; 4880454955466693; 1662080494002623;
        3425485869783662; 2099647094520920; 4535170441546221; 3198853140404927;
        8514931731434527; 6732467157152714; 8626581321046155; 1425383641491807;
        4229536895878237; 5883830048527015; 8034146228002561; 7194008030522766;
        2158542225049361; 271449854276996; 603999632243784; 8587269897126741;
        5459871974654662; 1009892058875214; 6906788823884964; 4813594839961689;
        5322034129048279; 4895943622990943; 6832031155222479; 4675727637028370;
        1563582805265583; 6104701832284634; 7530804774808898; 1674089017982997 ];
    bools = "01110011101111101001000111101001";
    u256s =
      [ "6aa718f5e7fe92f0e00e74912aebeee0797f474fecd63c27d55345a4fcb8cb94";
        "25e6afd461061b29e9b1d83f2290888d83b1ae161a2cf0fcf11fc1f8f8e0a325";
        "3156bf77f67fc57e9c32503cb5800981cb9701c1fa8cb94e1756af8681e6720c";
        "e5e7a7456ee1bf0aaedd19ff02233d197b96579537229d128d506dff052c45c2";
        "ac2b7614739a6ec80b0ddc67aa77f35d3deb5e1a6ab1c304beccc96862226c52";
        "67759e2f38fc5808f52e093fd6cd345a6313254a720d50d3c840f0139903595b";
        "101cb6a72a09ed2b2ed9c172c745dfe4562b9efc99b4413c634571f9cb111d32";
        "ab5d57091f5abff82a9b50d367e4bdc22d1aed0f9411942e82708a73ca3312ad";
        "5e404909238c1ffaa60a8a64e60982cdc93a7924b3d421619367c0a75c4a30ed";
        "77eb24a95d33ca59fa11186c170e49f4291277d3cebe927525be7f4dc8467635";
        "1ea5d47b44588b595813d90a65296320fcaa84c2bab40889ff32901e50ffb76b";
        "e51060fd9ea95fcfc73feff3233a3521831b340df1ff7adda56a34c26e735354";
        "4f06bdcc3e445d9bbd28aa2270231f58a2afab16d7d139ad2d44693d0d55b038";
        "74e74feff612a7f6196bc0cc29d8c4edc7925269b84a707f5667121dba95b395";
        "bc8b036ffe5f012311e64f46c3afa27b430528b5131f2f192b6990638d93418e";
        "398ee9852bad8e780354cbcd6f6b55c2949cacefc2613277ea41009de1041ec0";
        "67ab2ec68e8711a03d10f63a4135f5ce89d85968676c4afea8f06ece51dd346e";
        "20f6e1d8237584d1e3f3370064f0d8571f94b8d1e0b71921dd0335b1e27a6b6c";
        "4225559f863c488210290310786b32fffd066f34799762c22940da9f76b83663";
        "de821393cf035500dc3475efb908ca9f4cad44d193304cec6c7bc5c7bda3f542";
        "1365b9819182c6298c36a0cab200ef2476dac30f6d10d51787f5af36213cdc22";
        "03967dd16e454ee657aace913fb47476cb2e695cbc45660b00674f1908a66e5f";
        "5889b01662e4a4053832fa007481ba069fcf4bd74221c6485ba255e5e79268b8";
        "1119f062875059627ca78713f94e18f96393ef69a0b52c0a5bbc9d9054d5cdca";
        "f2e85ca1be92d7dd96d65a7f7f175caa7b2b6ff292e14f52e7c432a8f82edf38";
        "5164d5b47d1c5fe385408bd6a7948233ef2c2fdde2cb9ba8cee954d8d441c612";
        "5845b23619f7cf457b1b0c3bdb59f485f84c715016e7217709a16aa863d5e247";
        "f09c8cacdf1e12c55fd7fd7316fd00927c797cc8ba0cb1e24319ae2a526d1ccf";
        "658e11fdaf4cafcdae6cc2d70dd62dc76777647514d47ff87067f8a8c4f364ec";
        "75b031a82c49da7d3f5d9c3e079b885a3374cfa4ed850cc9648bbbde026fa964";
        "bac13a1f79ad42bcdd53860017781a2dc91e660e52b13a65cd82e317d699185b";
        "c5f293393d401523e9c33e8858b279511a6698422d807f5d494cfe9dcea66a5e" ];
    bytes12 =
      [ "6aa718f5e7fe92f0e00e749125e6afd461061b29e9b1d83f3156bf77f67fc57e";
        "9c32503ce5e7a7456ee1bf0aaedd19ffac2b7614739a6ec80b0ddc6767759e2f";
        "38fc5808f52e093f101cb6a72a09ed2b2ed9c172ab5d57091f5abff82a9b50d3";
        "5e404909238c1ffaa60a8a6477eb24a95d33ca59fa11186c1ea5d47b44588b59";
        "5813d90ae51060fd9ea95fcfc73feff34f06bdcc3e445d9bbd28aa2274e74fef";
        "f612a7f6196bc0ccbc8b036ffe5f012311e64f46398ee9852bad8e780354cbcd";
        "67ab2ec68e8711a03d10f63a20f6e1d8237584d1e3f337004225559f863c4882";
        "10290310de821393cf035500dc3475ef1365b9819182c6298c36a0ca03967dd1";
        "6e454ee657aace915889b01662e4a4053832fa001119f062875059627ca78713";
        "f2e85ca1be92d7dd96d65a7f5164d5b47d1c5fe385408bd65845b23619f7cf45";
        "7b1b0c3bf09c8cacdf1e12c55fd7fd73658e11fdaf4cafcdae6cc2d775b031a8";
        "2c49da7d3f5d9c3ebac13a1f79ad42bcdd538600c5f293393d401523e9c33e88" ];
    bytes70 =
      [ "83552be4caef8d2a34c85b49c932e9fbf17b3ad2be1def741bc934fc0014acb1";
        "9eb249e743093f50ff5ea70147e4b028a7b54ab257341efb1e3ae32f7b6a25c1";
        "2b0cf638a616" ] }

let check_golden name mk g =
  let draws f =
    let r = mk () in
    List.init 32 (fun _ -> f r)
  in
  Alcotest.(check (list int)) (name ^ " int") g.ints (draws (fun r -> Rng.int r max_int));
  Alcotest.(check (list int)) (name ^ " float") g.floats
    (draws (fun r -> int_of_float (Rng.float r *. 0x1p53)));
  Alcotest.(check string) (name ^ " bool") g.bools
    (String.concat "" (draws (fun r -> if Rng.bool r then "1" else "0")));
  Alcotest.(check (list string)) (name ^ " u256") g.u256s
    (draws (fun r -> Hex.of_bytes (U256.to_bytes_be (Rng.u256 r))));
  let r = mk () in
  let b12 = List.init 32 (fun _ -> Hex.of_bytes (Rng.bytes r 12)) in
  Alcotest.(check string) (name ^ " bytes 12") (String.concat "" g.bytes12)
    (String.concat "" b12);
  Alcotest.(check string) (name ^ " bytes 70") (String.concat "" g.bytes70)
    (Hex.of_bytes (Rng.bytes r 70))

let test_rng_golden () =
  check_golden "root" (fun () -> Rng.create "golden") golden_root;
  check_golden "child" (fun () -> Rng.split (Rng.create "golden") "child") golden_child

(* The one-block counter path equals the digest of [seed ^ le64 counter],
   also where the counter's high bytes 4–7 are non-zero. *)
let test_rng_counter_block () =
  let le64 c =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int c);
    b
  in
  let counters =
    [ 0; 1; 0xFFFFFFFF; 0x1_0000_0000; 0x1_0000_0001; 0xFF_0000_0000;
      0x0123_4567_89AB_CDEF; 0x3F00_0000_0000_0000; max_int ]
  in
  List.iter
    (fun label ->
      let seed = Sha256.digest_string label in
      let key = Sha256.counter_key seed in
      List.iter
        (fun c ->
          let expect = Sha256.digest (Bytes.cat seed (le64 c)) in
          let name = Printf.sprintf "%s counter %#x" label c in
          Alcotest.(check string) name
            (Hex.of_bytes (Sha256_reference.digest (Bytes.cat seed (le64 c))))
            (Hex.of_bytes expect);
          let out = Bytes.make 34 '?' in
          Sha256.counter_into key c out 1 32;
          Alcotest.(check string) (name ^ " bytes") (Hex.of_bytes expect)
            (Hex.of_bytes (Bytes.sub out 1 32));
          Alcotest.(check char) (name ^ " no overrun") '?' (Bytes.get out 33);
          Alcotest.(check int) (name ^ " bits56")
            (Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_be expect 0) 8))
            (Sha256.counter_bits56 key c))
        counters)
    [ "a"; "golden"; "counter-mode" ];
  Alcotest.check_raises "short key" (Invalid_argument "Sha256.counter_key")
    (fun () -> ignore (Sha256.counter_key (Bytes.create 31)))

let test_rng_deterministic () =
  let a = Rng.create "seed" and b = Rng.create "seed" in
  for _ = 1 to 10 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let parent = Rng.create "seed" in
  let c1 = Rng.split parent "a" and c2 = Rng.split parent "b" in
  let s1 = List.init 8 (fun _ -> Rng.int c1 1_000_000) in
  let s2 = List.init 8 (fun _ -> Rng.int c2 1_000_000) in
  Alcotest.(check bool) "different streams" true (s1 <> s2)

let test_rng_bounds () =
  let r = Rng.create "bounds" in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v;
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of bounds: %f" f
  done;
  Alcotest.check_raises "nonpositive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_shuffle_permutes () =
  let r = Rng.create "shuffle" in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Golden signature bytes                                              *)
(* ------------------------------------------------------------------ *)

(* Pinned bytes: the field's internal representation (limb layout,
   Montgomery R) may change, what it signs and serializes may not. *)
let zero_hex n = String.make n '0'

let test_golden_bls () =
  let sk, pk = Bls.keygen (Rng.create "golden bls") in
  let s = Bls.sign sk (Bytes.of_string "epoch 42 summary") in
  Alcotest.(check string) "public key"
    (zero_hex 192 ^ "09a4f29d35c59b3edbbba80e416c3922b28899c628a8c1691d6b65c09e211ad8")
    (Hex.of_bytes (Bls.public_key_to_bytes pk));
  Alcotest.(check string) "signature"
    (zero_hex 64 ^ "07e360297234502d596c75240a34e03682085f6cb8e041e1baa09548b038b7d2")
    (Hex.of_bytes (Bls.signature_to_bytes s))

let test_golden_threshold () =
  let vk, _, shares = Bls.dkg (Rng.create "golden dkg") ~n:16 ~threshold:11 in
  let msg = Bytes.of_string "epoch 42 sync payload" in
  let partials = List.map (fun sh -> Bls.partial_sign sh msg) shares in
  Alcotest.(check string) "group key"
    (zero_hex 192 ^ "2ac1e655415d8b5e3f0d73e15d83faee2adf2df0318bcc6e44a2a7ab303c130f")
    (Hex.of_bytes (Bls.public_key_to_bytes vk));
  let expect =
    zero_hex 64 ^ "2fa9e7bb6745ac56fc2c8698e20ad05cb6c2a129426207f707a2f4ae39ac4a2b"
  in
  List.iter
    (fun (name, keep) ->
      match Bls.combine ~threshold:11 (List.filteri (fun i _ -> keep i) partials) with
      | Some s -> Alcotest.(check string) name expect (Hex.of_bytes (Bls.signature_to_bytes s))
      | None -> Alcotest.fail (name ^ ": combine failed"))
    [ ("first 11 of 16", fun i -> i < 11); ("last 11 of 16", fun i -> i >= 5) ]

let test_golden_vrf () =
  let sk, _ = Bls.keygen (Rng.create "golden vrf") in
  let out, _ = Vrf.evaluate sk (Bytes.of_string "epoch 42 seed") in
  Alcotest.(check string) "output"
    "54f3297735722f4df8950bef2200e474863b3f64b75e505e0b1b4f0e48737f0f" (Hex.of_bytes out)

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries ]
        @ reference_props );
      ( "keccak256",
        [ Alcotest.test_case "vectors" `Quick test_keccak_vectors;
          Alcotest.test_case "rate boundaries" `Quick test_keccak_rate_boundaries ]
        @ hash_props @ streaming_props );
      ( "field",
        [ Alcotest.test_case "fermat" `Quick test_field_pow;
          Alcotest.test_case "inversion edges" `Quick test_field_inv_edges ]
        @ field_props @ fast_vs_naive_props );
      ( "bls",
        [ Alcotest.test_case "sign/verify" `Quick test_bls_sign_verify;
          Alcotest.test_case "sizes" `Quick test_bls_sizes;
          Alcotest.test_case "aggregate" `Quick test_bls_aggregate;
          Alcotest.test_case "threshold basic" `Quick test_threshold_basic;
          Alcotest.test_case "threshold too few" `Quick test_threshold_too_few;
          Alcotest.test_case "threshold duplicates" `Quick test_threshold_duplicates_dont_count;
          Alcotest.test_case "threshold wrong message" `Quick
            test_threshold_wrong_subset_signature_rejected;
          Alcotest.test_case "threshold withheld any subset" `Quick
            test_threshold_withheld_any_subset;
          Alcotest.test_case "threshold withheld below quorum" `Quick
            test_threshold_withheld_below_quorum;
          Alcotest.test_case "threshold share indices" `Quick test_threshold_share_indices;
          Alcotest.test_case "dkg bad threshold" `Quick test_dkg_bad_threshold;
          Alcotest.test_case "verify partial" `Quick test_verify_partial;
          Alcotest.test_case "combine rejects tampered" `Quick
            test_combine_rejects_tampered;
          Alcotest.test_case "member key at zero" `Quick test_member_key_vk;
          threshold_subset_prop; combine_vs_reference_prop;
          hash_to_g1_cache_prop ] );
      ( "vrf",
        [ Alcotest.test_case "roundtrip" `Quick test_vrf_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_vrf_deterministic;
          Alcotest.test_case "output below" `Quick test_vrf_output_below ] );
      ( "merkle",
        [ Alcotest.test_case "all proofs verify" `Quick test_merkle_all_proofs;
          Alcotest.test_case "bad proof" `Quick test_merkle_bad_proof;
          Alcotest.test_case "empty and range" `Quick test_merkle_empty_and_range;
          Alcotest.test_case "proof length" `Quick test_merkle_proof_length ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "golden streams" `Quick test_rng_golden;
          Alcotest.test_case "counter block" `Quick test_rng_counter_block ] );
      ( "golden",
        [ Alcotest.test_case "bls sign bytes" `Quick test_golden_bls;
          Alcotest.test_case "threshold 11-of-16 bytes" `Quick test_golden_threshold;
          Alcotest.test_case "vrf output" `Quick test_golden_vrf ] ) ]
