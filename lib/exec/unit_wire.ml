(* Serializable unit wire protocol between the campaign coordinator and
   its worker processes (the procpool).

   Every message is one {!Frame} with magic "vmw1|" whose payload is
   [Marshal] output, so a torn frame (worker killed mid-write),
   injected garbage, or a stray print that escaped onto the protocol
   pipe is a counted incident the reader resynchronises past — [Marshal]
   never sees unverified bytes. *)

type t = {
  w_index : int; (* stable global unit index — the merge key *)
  w_attempt : int; (* supervisor-side deal count, 1-based *)
  w_key : string; (* journal unit key, for logs and sanity checks *)
  w_payload : string; (* marshalled task-specific unit description *)
}

type verdict =
  | W_ok of string (* marshalled task-specific result *)
  | W_timed_out of string
  | W_crashed of { exn : string; backtrace : string }

type msg =
  | Hello of string (* coordinator -> worker: marshalled run config *)
  | Unit of t (* coordinator -> worker: one unit to execute *)
  | Ack of { index : int; attempt : int } (* worker heartbeat at unit start *)
  | Result of { index : int; attempt : int; attempts : int; verdict : verdict }
  | Bye (* coordinator -> worker: drain and exit 0 *)

let magic = "vmw1|"

let encode (m : msg) = Frame.encode ~magic (Marshal.to_string m [])

let parse payload = try Some (Marshal.from_string payload 0 : msg) with _ -> None

let decode_line line = Option.bind (Frame.decode ~magic line) parse

let verdict_of_outcome (o : string Supervise.outcome) =
  match o.verdict with
  | Supervise.Ok payload -> W_ok payload
  | Supervise.Timed_out reason -> W_timed_out reason
  | Supervise.Unit_crashed { exn; backtrace } -> W_crashed { exn; backtrace }
  | Supervise.Worker_died _ | Supervise.Quarantined _ ->
      invalid_arg "Unit_wire.verdict_of_outcome: not a worker-side verdict"

let outcome_of_verdict ~attempts v : string Supervise.outcome =
  let verdict =
    match v with
    | W_ok payload -> Supervise.Ok payload
    | W_timed_out reason -> Supervise.Timed_out reason
    | W_crashed { exn; backtrace } -> Supervise.Unit_crashed { exn; backtrace }
  in
  { verdict; attempts }

type decoder = msg Frame.reader

let decoder () = Frame.reader ~magic parse
let feed = Frame.feed
let next = Frame.next
let garbage = Frame.garbage
let eof = Frame.eof
