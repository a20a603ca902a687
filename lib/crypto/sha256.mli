(** SHA-256 (FIPS 180-4), implemented from scratch. *)

val digest : bytes -> bytes
(** 32-byte digest of the input. Runs on a reusable domain-local context:
    no per-call message-schedule allocation and no padded input copy. *)

val digest_string : string -> bytes
val hex : string -> string
(** Hex digest of a string input, convenient for tests. *)

val concat : bytes list -> bytes
(** Digest of the concatenation of the inputs, streamed — the parts are
    never copied into one buffer. *)

(** {1 Streaming interface}

    Feed a message in arbitrary chunks; equals the one-shot digest of
    the concatenation. A context is reusable: {!finalize} leaves it
    ready for the next message (as does {!reset}). *)

type ctx

val init : unit -> ctx
val reset : ctx -> unit
val feed : ctx -> bytes -> unit
val feed_string : ctx -> string -> unit
val finalize : ctx -> bytes

(** {1 Counter mode}

    The digest of [key ^ le64 counter] for a fixed 32-byte key: one
    padded block, whose rounds 0–7 depend on the key alone and run once
    in {!counter_key}. This is the block function of {!Rng}. *)

type counter_key

val counter_key : bytes -> counter_key
(** Raises [Invalid_argument] unless the key is 32 bytes. *)

val counter_bits56 : counter_key -> int -> int
(** [counter_bits56 k c] is the first 7 bytes of the digest of
    [key ^ le64 c], read big-endian. Allocates nothing. *)

val counter_into : counter_key -> int -> bytes -> int -> int -> unit
(** [counter_into k c dst off len] writes the first [len] (at most 32)
    bytes of the digest of [key ^ le64 c] at [off] in [dst]. *)
