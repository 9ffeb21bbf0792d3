let write ~what path f =
  let fail msg = failwith (Printf.sprintf "%s: %s (%s)" what msg path) in
  let tmp = path ^ ".tmp" in
  let oc = try open_out_bin tmp with Sys_error msg -> fail msg in
  match
    f oc;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    (match e with Sys_error msg -> fail msg | e -> raise e)
