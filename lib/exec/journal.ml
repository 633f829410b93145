(* Append-only checkpoint journal of a supervised run: one {!Frame} per
   line, a header frame carrying the configuration fingerprint, then
   one frame per completed unit holding its marshalled [record]. *)

let magic = "vmj1|"

(* Bump [magic] whenever this type (or [Supervise.outcome]) changes: an
   older journal then has no valid header and is recomputed. *)
type record = string * string Supervise.outcome

let write_header oc ~config =
  output_string oc (Frame.encode ~magic config);
  flush oc

let append ?(sync = false) oc ~key (o : string Supervise.outcome) =
  output_string oc (Frame.encode ~magic (Marshal.to_string ((key, o) : record) []));
  flush oc;
  (* [--journal-sync]: force the line to stable storage so even a
     power-cut-style kill resumes byte-identically.  The default only
     flushes to the OS — a killed *process* loses nothing, a killed
     *machine* may lose the tail (and resume then recomputes it). *)
  if sync then try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

let load ~config file =
  let tbl = Hashtbl.create 64 in
  (match open_in_bin file with
  | exception Sys_error msg ->
      Printf.eprintf "warning: cannot read journal %s (%s); starting fresh\n%!" file msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file ->
              Printf.eprintf "warning: journal %s is empty; starting fresh\n%!" file
          | first -> (
              match Frame.decode ~magic first with
              | None ->
                  Printf.eprintf
                    "warning: journal %s has no valid header; ignoring it\n%!" file
              | Some found when found <> config ->
                  Printf.eprintf
                    "warning: journal %s was written under a different configuration; \
                     ignoring it\n\
                     %!"
                    file
              | Some _ ->
                  (* torn, damaged or foreign lines are skipped *)
                  let r =
                    Frame.reader ~magic (fun p ->
                        try Some (Marshal.from_string p 0 : record) with _ -> None)
                  in
                  let rec drain () =
                    match Frame.next r with
                    | Some (key, o) ->
                        Hashtbl.replace tbl key o;
                        drain ()
                    | None -> ()
                  in
                  let buf = Bytes.create 65536 in
                  let rec go () =
                    match input ic buf 0 (Bytes.length buf) with
                    | 0 -> Frame.eof r
                    | k ->
                        Frame.feed r (Bytes.sub_string buf 0 k);
                        drain ();
                        go ()
                  in
                  go ();
                  drain ())));
  tbl
