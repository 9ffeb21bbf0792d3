(** The repo's one definition of a number in an input.

    Every reader that turns text into a number — the JSON codec, QASM
    literals, the pulse-database and plan-sidecar records, the
    [--inject] spec, the CLI's flags and angle files, the golden
    tables — goes through here, so they all agree on what a number is:

    - a float is written in OCaml's float syntax ([%.17g] and [%h] hex
      forms included, as are [_] separators and a leading [+]) and must
      be finite: [inf], [nan] and a literal past the float range such
      as [1e999] are refused;
    - an int is written in OCaml's int syntax and must be exact: a
      literal that overflows, or a [0x]/[0o]/[0b]/[0u] literal that
      would wrap to the other sign, is refused.

    Input is not canonical: [1_000], [+5] and [0x1p-2] all read, so
    printing what was read need not give back the same bytes. *)

(** Which check a token failed. Each reader maps it to its own error
    text. *)
type error =
  | Not_a_number  (** not a number in OCaml's syntax *)
  | Not_finite  (** a number, but infinite or NaN *)

(** [float s] is the finite float [s] spells. *)
val float : string -> (float, error) result

(** [int s] is the int [s] spells exactly, or [None]. *)
val int : string -> int option

(** [hex s] is the value of [s] when [s] is one or more hexadecimal
    digits and nothing else (no prefix, sign or separator) and the
    value fits an int, or [None]. *)
val hex : string -> int option
