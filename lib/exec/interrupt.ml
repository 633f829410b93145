(* Cooperative SIGINT/SIGTERM handling for long campaign runs.

   The handler only sets a flag: the supervisor and the worker pool
   poll it at unit boundaries, so an interrupted run kills its workers,
   flushes its journal, and prints partial aggregates (tagged
   [interrupted: true]) instead of losing the tail of an unsynced
   journal to an abrupt exit.  The CLI exits 130 after reporting. *)

let flag = Atomic.make false
let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    let handle _ = Atomic.set flag true in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle handle)
     with Invalid_argument _ | Sys_error _ -> ());
    try Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)
    with Invalid_argument _ | Sys_error _ -> ()
  end

let requested () = Atomic.get flag
