(** Checksummed, hex-armoured record frames: the one codec behind the
    supervision journal, the worker wire protocol ({!Unit_wire}) and
    the store's checksums ({!Store}).

    A frame is one self-delimiting text line,
    [<magic><len:8 hex>|<md5 hex of payload>|<hex-armoured payload>\n].
    Because frames are length-prefixed and checksummed, a torn frame
    (writer killed mid-line), a flipped byte, injected garbage or a
    foreign line decodes to nothing rather than to wrong bytes, so a
    caller that unmarshals the payload never hands [Marshal]
    unverified input.  Decoding is strict: a line decodes only if it
    is exactly what {!encode} wrote for that payload. *)

val encode : magic:string -> string -> string
(** One complete frame carrying the payload, trailing newline
    included. *)

val decode : magic:string -> string -> string option
(** The payload of one line (newline excluded), or [None] on any
    malformation — wrong magic, bad length, bad hex, checksum
    mismatch.  Never raises. *)

(** {2 Resyncing reader} *)

type 'a reader
(** An incremental decoder over an arbitrary byte stream of frames,
    turning each verified payload into a record. *)

val reader : magic:string -> (string -> 'a option) -> 'a reader
(** [reader ~magic parse] reads frames with [magic]; [parse] maps a
    verified payload to a record, [None] counting the line as
    garbage like any other bad frame. *)

val feed : 'a reader -> string -> unit
(** Append received bytes; complete lines are decoded eagerly.  An
    invalid line counts one garbage incident and is scanned for an
    embedded magic so a frame glued behind newline-less garbage is
    still recovered. *)

val next : 'a reader -> 'a option
(** Dequeue the next decoded record, if any. *)

val garbage : 'a reader -> int
(** Invalid lines / torn frames recovered past so far. *)

val eof : 'a reader -> unit
(** Flush the newline-less tail (a complete frame missing only its
    newline decodes; anything else counts as one torn frame). *)

(** {2 Armour and checksum} *)

val to_hex : string -> string
(** Lowercase hex armour, two characters per byte. *)

val of_hex : string -> string option
(** Inverse of {!to_hex}; [None] on odd length or a character outside
    [0-9a-f]. *)

val checksum : string -> string
(** The md5 of a payload, as 32 lowercase hex characters. *)
