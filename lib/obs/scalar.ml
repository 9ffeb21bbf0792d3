type error = Not_a_number | Not_finite

let float s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> Ok f
  | Some _ -> Error Not_finite
  | None -> Error Not_a_number

(* int_of_string reads a 0x/0o/0b/0u literal up to 2 * max_int + 1 and
   wraps it to the other sign; an exact read keeps the sign it spells *)
let int s =
  match int_of_string_opt s with
  | Some n when n = 0 || (n < 0) = (s.[0] = '-') -> Some n
  | Some _ | None -> None

let is_hex_digit = function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false

let hex s =
  if s <> "" && String.for_all is_hex_digit s then int ("0x" ^ s) else None
