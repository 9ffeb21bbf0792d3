(** The repo's one JSON codec (it deliberately has no JSON dependency).

    Every JSON document the system writes — daemon frames, metrics and
    trace dumps, the pulse-IR export's tokens, the bench entries — is
    printed through here, and every one it reads is parsed here. The
    codec is total: any value whose numbers are finite round-trips
    through {!to_string}/{!of_string}, and any byte string either parses
    or yields a typed [Error]. *)

(** A JSON value. Numbers are floats; integers round-trip exactly up to
    2{^53}. *)
type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [int n] is [Num (float_of_int n)]. *)
val int : int -> t

(** [to_int j] is [Some n] when [j] is an integral [Num] with
    [|n| <= 2]{^53}, the range where a float holds every integer
    exactly, and [None] for any other value. Every reader of a JSON
    integer goes through it, so an out-of-range number is refused
    instead of truncated. *)
val to_int : t -> int option

(** [to_buffer buf j] appends the compact JSON text of [j] (no
    whitespace) to [buf]. Numbers print as [%.17g], which round-trips
    every finite float exactly and prints integral values below 10{^17}
    without a fraction or exponent. Strings escape quotes, backslashes
    and control characters per RFC 8259; bytes [>= 0x80] pass through
    raw. *)
val to_buffer : Buffer.t -> t -> unit

(** [to_string j] is {!to_buffer} into a fresh buffer. *)
val to_string : t -> string

(** [of_string s] parses one JSON value (surrounding whitespace allowed;
    trailing garbage is an error). A number reads through
    {!Scalar.float}, so one past the float range ([1e999]) is an error
    naming it, and a parsed [Num] is always finite. A Unicode escape is
    [\u] and exactly four hex digits ({!Scalar.hex}), accepted for ASCII
    code points only — the writer never produces any other. *)
val of_string : string -> (t, string) result
