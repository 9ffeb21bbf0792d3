(** The repo's one whole-file writer: pulse databases, the shared
    cache's snapshots, metrics and trace dumps, pulse-IR exports, sweep
    plans, goldens and bench entries are all written through {!write},
    so a crash or a failure mid-write never leaves a truncated file at
    the target path. (The cache's journal appends are the one other
    write path; they roll back torn records themselves.) *)

(** [write ~what path f] opens [path.tmp], runs [f] on the channel,
    closes it and renames it over [path].

    On any failure the temporary file is removed and [path] is left as
    it was. An I/O failure ([Sys_error], from opening, [f], closing or
    the rename) raises [Failure "<what>: <reason> (<path>)"]; any other
    exception [f] raises reaches the caller unchanged. *)
val write : what:string -> string -> (out_channel -> unit) -> unit
