(** Serializable wire protocol between the campaign coordinator and its
    worker processes ({!Procpool}).

    Every message is one {!Frame} with magic [vmw1|] carrying a
    [Marshal] payload, so torn frames and injected garbage are counted
    incidents the decoder recovers from, never crashes, and [Marshal]
    only ever sees bytes whose checksum verified. *)

type t = {
  w_index : int;  (** stable global unit index — the merge key *)
  w_attempt : int;  (** supervisor-side deal count, 1-based *)
  w_key : string;  (** journal unit key, for logs and sanity checks *)
  w_payload : string;  (** marshalled task-specific unit description *)
}

type verdict =
  | W_ok of string  (** marshalled task-specific result *)
  | W_timed_out of string  (** budget exhaustion reason *)
  | W_crashed of { exn : string; backtrace : string }

type msg =
  | Hello of string  (** coordinator → worker: marshalled run config *)
  | Unit of t  (** coordinator → worker: one unit to execute *)
  | Ack of { index : int; attempt : int }
      (** worker → coordinator: heartbeat at unit start *)
  | Result of { index : int; attempt : int; attempts : int; verdict : verdict }
      (** worker → coordinator: unit finished *)
  | Bye  (** coordinator → worker: drain and exit 0 *)

val encode : msg -> string
(** One complete frame, trailing newline included. *)

val decode_line : string -> msg option
(** Decode one line (newline excluded).  Any malformation — wrong
    magic, bad length, checksum mismatch, unmarshallable payload — is
    [None], never an exception. *)

val verdict_of_outcome : string Supervise.outcome -> verdict
(** The wire form of a worker's {!Supervise.execute} verdict.  Raises
    [Invalid_argument] on [Worker_died] and [Quarantined], which only
    the coordinator produces. *)

val outcome_of_verdict : attempts:int -> verdict -> string Supervise.outcome
(** Inverse of {!verdict_of_outcome}, with the attempts the worker
    reported. *)

(** Incremental decoder over an arbitrary byte stream
    ({!Frame.reader} over [msg]). *)
type decoder

val decoder : unit -> decoder

val feed : decoder -> string -> unit
(** Append received bytes; complete lines are decoded eagerly.  An
    invalid line counts one garbage incident and is scanned for an
    embedded magic so a frame glued behind newline-less garbage is
    still recovered. *)

val next : decoder -> msg option
(** Dequeue the next decoded message, if any. *)

val garbage : decoder -> int
(** Invalid lines / torn frames recovered past so far. *)

val eof : decoder -> unit
(** Flush the newline-less tail (a complete frame missing only its
    newline decodes; anything else counts as one torn frame). *)
