module Obs = Paqoc_obs.Obs

type entry = Db_format.entry = {
  latency : float;
  error : float;
  fidelity : float;
  provenance : Db_format.provenance;
}

type stats = {
  hits : int;
  misses : int;
  canonical_hits : int;
  publishes : int;
  compactions : int;
  appends : int;
}

(* The persistence side: a journal fd plus the append accounting that
   drives amortized compaction. [jlock] serialises appends and
   compactions; it is never taken while the table lock is held (publish
   inserts first, releases the tables, then journals), so the lock order
   jlock -> table lock (inside compaction) can never deadlock, and a
   probe never waits on a file write. *)
type journal = {
  jlock : Mutex.t;
  jpath : string;
  mutable fd : Unix.file_descr;
  mutable pending : int;  (** journal records since the last compaction *)
  mutable snapshot_records : int;
      (** records in the file's snapshot section: set by each compaction
          and by [open_file]'s parse *)
  mutable open_ : bool;
  mutable disk_version : Db_format.version;
      (** header version of the backing file right now; the first class
          append upgrades a v3 file to v4 via compaction *)
}

(* One mutex guards the three tables. A compile touches the cache only
   from its generator's serial plan and commit phases, so at most
   [serve --jobs] compiles contend for it, a few thousand operations a
   suite pass. *)
type t = {
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  shapes : (string, unit) Hashtbl.t;
  classes : (string, Db_format.class_info) Hashtbl.t;
  journal : journal option;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_canonical : int Atomic.t;
  n_publishes : int Atomic.t;
  n_compactions : int Atomic.t;
  n_appends : int Atomic.t;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The least journal length that triggers a compaction. A larger
   snapshot raises the trigger to its own record count, so the journal
   always pays for the rewrite: each compaction rewrites at most twice
   the journal records it folds in, and a record is rewritten O(1)
   times amortized however large the cache grows. *)
let compact_every = 256

let make ~journal =
  { lock = Mutex.create ();
    entries = Hashtbl.create 1024;
    shapes = Hashtbl.create 1024;
    classes = Hashtbl.create 64;
    journal;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_canonical = Atomic.make 0;
    n_publishes = Atomic.make 0;
    n_compactions = Atomic.make 0;
    n_appends = Atomic.make 0
  }

let create () = make ~journal:None

let path t = Option.map (fun j -> j.jpath) t.journal

let stats t =
  { hits = Atomic.get t.n_hits;
    misses = Atomic.get t.n_misses;
    canonical_hits = Atomic.get t.n_canonical;
    publishes = Atomic.get t.n_publishes;
    compactions = Atomic.get t.n_compactions;
    appends = Atomic.get t.n_appends
  }

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

let probe t key = locked t.lock (fun () -> Hashtbl.find_opt t.entries key)

(* Single accounting choke point for authoritative consults. Exposed so
   {!Generator}'s batch planner can score a consult it resolved from
   in-batch state (work the serial commit order would already have
   published here) without a redundant probe. *)
let note_consult t = function
  | `Hit ->
    Atomic.incr t.n_hits;
    Obs.count "cache.hit"
  | `Canonical_hit ->
    Atomic.incr t.n_hits;
    Atomic.incr t.n_canonical;
    Obs.count "cache.hit";
    Obs.count "cache.canonical_hit"
  | `Miss ->
    Atomic.incr t.n_misses;
    Obs.count "cache.miss"

let find t key =
  match probe t key with
  | Some _ as hit ->
    note_consult t `Hit;
    hit
  | None ->
    note_consult t `Miss;
    None

let probe_class t ck = locked t.lock (fun () -> Hashtbl.find_opt t.classes ck)
let mem_shape t sign = locked t.lock (fun () -> Hashtbl.mem t.shapes sign)
let size t = locked t.lock (fun () -> Hashtbl.length t.entries)
let n_shapes t = locked t.lock (fun () -> Hashtbl.length t.shapes)
let n_classes t = locked t.lock (fun () -> Hashtbl.length t.classes)

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let collect t =
  locked t.lock (fun () ->
      ( Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.entries [],
        Hashtbl.fold (fun sign () acc -> sign :: acc) t.shapes [],
        Hashtbl.fold (fun _ ci acc -> ci :: acc) t.classes [] ))

(* Snapshot write shared by [compact] and [save], through the one
   pulse-DB writer. The header version is chosen by content: a cache
   with no class records writes exactly the v3 bytes it always wrote, so
   a run that never canonicalizes leaves the file byte-identical.
   Returns the version written. *)
let write_snapshot ~ctx ~path entries shapes classes =
  let version =
    match classes with [] -> Db_format.V3 | _ :: _ -> Db_format.V4
  in
  Db_format.write ~what:ctx ~classes version path entries shapes;
  version

let save t path =
  let entries, shapes, classes = collect t in
  ignore (write_snapshot ~ctx:"Cache.save" ~path entries shapes classes)

let open_append path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644

(* Rewrite the backing file as a sorted snapshot and reset the journal.
   Called with [jlock] held. The rename is atomic, so a failure leaves
   the previous file (snapshot + journal) fully intact. *)
let compact_locked t j =
  let entries, shapes, classes = collect t in
  j.disk_version <-
    write_snapshot ~ctx:"Cache.compact" ~path:j.jpath entries shapes classes;
  j.snapshot_records <-
    List.length entries + List.length shapes + List.length classes;
  (* the old fd points at the pre-rename inode; swap it for the new file *)
  (try Unix.close j.fd with Unix.Unix_error _ -> ());
  j.fd <- open_append j.jpath;
  j.pending <- 0;
  Atomic.incr t.n_compactions;
  Obs.count "cache.compaction"

let compact t =
  match t.journal with
  | None -> ()
  | Some j ->
    locked j.jlock (fun () ->
        if not j.open_ then failwith "Cache.compact: cache is closed";
        compact_locked t j)

let rec write_fully fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_fully fd s (pos + n) (len - n)
  end

(* Append one journal record. The whole record (including the trailing
   newline) goes through writes that are rolled back with [ftruncate] on
   any failure, so a failed append can never leave a torn record behind —
   the file always ends on a record boundary. *)
let append_locked t j record =
  let line = Db_format.journal_line record ^ "\n" in
  let pos = Unix.lseek j.fd 0 Unix.SEEK_END in
  (try
     if Faultin.fire Faultin.Journal_append_error then
       raise (Sys_error "injected journal-append fault");
     write_fully j.fd line 0 (String.length line)
   with e ->
     (try Unix.ftruncate j.fd pos with Unix.Unix_error _ -> ());
     (* the in-memory tables are now ahead of the journal; counting
        the failed append as pending work makes the next compaction
        (auto or at [close]) persist the orphaned entry *)
     j.pending <- j.pending + 1;
     let msg =
       match e with
       | Sys_error m -> m
       | Unix.Unix_error (err, _, _) -> Unix.error_message err
       | e -> raise e
     in
     failwith (Printf.sprintf "Cache.publish: %s (%s)" msg j.jpath));
  j.pending <- j.pending + 1;
  Atomic.incr t.n_appends;
  if j.pending >= max compact_every j.snapshot_records then compact_locked t j

let append t record =
  match t.journal with
  | None -> ()
  | Some j ->
    locked j.jlock (fun () ->
        if not j.open_ then failwith "Cache.publish: cache is closed";
        append_locked t j record)

(* A [+C] record may only land in a v4-headered file. The first class
   append against a v3 file compacts instead: the class is already in
   the in-memory tables, so the compaction writes a v4 snapshot that
   contains it — that is the v3 -> v4 migration, and it only ever
   happens when a class is actually published. *)
let append_class t ci =
  match t.journal with
  | None -> ()
  | Some j ->
    locked j.jlock (fun () ->
        if not j.open_ then failwith "Cache.publish: cache is closed";
        if j.disk_version <> Db_format.V4 then compact_locked t j
        else append_locked t j (Db_format.Class ci))

(* ------------------------------------------------------------------ *)
(* Publish                                                             *)
(* ------------------------------------------------------------------ *)

(* [add_fresh t tbl k v] binds [k] unless bound; true when it did *)
let add_fresh t tbl k v =
  locked t.lock (fun () ->
      if Hashtbl.mem tbl k then false
      else begin
        Hashtbl.replace tbl k v;
        true
      end)

let publish t key e =
  if add_fresh t t.entries key e then begin
    Atomic.incr t.n_publishes;
    Obs.count "cache.publish";
    append t (Db_format.Priced (key, e))
  end

let publish_shape t sign =
  if add_fresh t t.shapes sign () then append t (Db_format.Shape sign)

let publish_class t (ci : Db_format.class_info) =
  if add_fresh t t.classes ci.Db_format.class_key ci then begin
    Obs.count "cache.class_publish";
    append_class t ci
  end

(* ------------------------------------------------------------------ *)
(* Device eviction                                                     *)
(* ------------------------------------------------------------------ *)

(* The device hash of a fully-qualified key, when it carries the
   "dev:<hash>|" namespace ({!Paqoc_topology.Device.cache_namespace});
   [None] for default-lattice keys, which are never namespace-evicted. *)
let device_of_key k =
  if String.length k > 4 && String.equal (String.sub k 0 4) "dev:" then
    match String.index_opt k '|' with
    | Some i when i > 4 -> Some (String.sub k 4 (i - 4))
    | _ -> None
  else None

let evict_devices ?(keep = []) t =
  let stale h = not (List.exists (String.equal h) keep) in
  let drop_stale tbl =
    let victims =
      Hashtbl.fold
        (fun k _ acc ->
          match device_of_key k with
          | Some h when stale h -> k :: acc
          | _ -> acc)
        tbl []
    in
    List.iter (Hashtbl.remove tbl) victims;
    List.length victims
  in
  let dropped =
    locked t.lock (fun () ->
        drop_stale t.entries + drop_stale t.shapes + drop_stale t.classes)
  in
  if dropped > 0 then begin
    Obs.count ~n:dropped "cache.device_evicted";
    (* fold the eviction into the backing file: the next snapshot is a
       pure function of the in-memory tables, so compacting now drops
       the stale records from disk as well *)
    match t.journal with
    | None -> ()
    | Some j ->
      locked j.jlock (fun () -> if j.open_ then compact_locked t j)
  end;
  dropped

(* ------------------------------------------------------------------ *)
(* Open / close                                                        *)
(* ------------------------------------------------------------------ *)

let insert_mem t record =
  locked t.lock (fun () ->
      match record with
      | Db_format.Priced (key, e) -> Hashtbl.replace t.entries key e
      | Db_format.Shape sign -> Hashtbl.replace t.shapes sign ()
      | Db_format.Class ci ->
        Hashtbl.replace t.classes ci.Db_format.class_key ci)

let open_file path =
  let exists = Sys.file_exists path in
  let contents =
    if not exists then None
    else
      match Db_format.parse_file path with
      | Ok c -> Some c
      | Error "empty file" -> None  (* treat a 0-byte file as fresh *)
      | Error msg ->
        failwith (Printf.sprintf "Cache.open_file: %s (%s)" msg path)
  in
  let journal =
    { jlock = Mutex.create ();
      jpath = path;
      fd = Unix.stdin;  (* placeholder; replaced below *)
      pending = 0;
      snapshot_records = 0;
      open_ = true;
      disk_version = Db_format.V3
    }
  in
  let t = make ~journal:(Some journal) in
  (match contents with
  | None ->
    (* fresh file: just the v3 header *)
    journal.disk_version <-
      write_snapshot ~ctx:"Cache.open_file" ~path [] [] [];
    journal.fd <- open_append path
  | Some c ->
    List.iter (insert_mem t) c.snapshot;
    (* journal replay, last-wins *)
    List.iter (insert_mem t) c.journal;
    (match c.version with
    | Db_format.V3 | Db_format.V4 ->
      journal.disk_version <- c.version;
      journal.fd <- open_append path;
      if c.torn_tail then
        (* drop the torn record from disk too, so appends resume on a
           record boundary *)
        (try Unix.ftruncate journal.fd c.valid_bytes
         with Unix.Unix_error (err, _, _) ->
           failwith
             (Printf.sprintf "Cache.open_file: %s (%s)"
                (Unix.error_message err) path));
      journal.pending <- List.length c.journal;
      journal.snapshot_records <- List.length c.snapshot
    | Db_format.V1 | Db_format.V2 ->
      (* migrate the snapshot format in place *)
      journal.fd <- open_append path;
      locked journal.jlock (fun () -> compact_locked t journal)));
  t

let close t =
  match t.journal with
  | None -> ()
  | Some j ->
    locked j.jlock (fun () ->
        if j.open_ then begin
          if j.pending > 0 then compact_locked t j;
          (try Unix.close j.fd with Unix.Unix_error _ -> ());
          j.open_ <- false
        end)

let with_file path f =
  let t = open_file path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
