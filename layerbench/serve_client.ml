(** Closed-loop client of the compile server: one connection, one request
    in flight, each reply read before the next request is written. *)

type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  pending : Buffer.t;  (** bytes read past the last complete line *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; chunk = Bytes.create 65536; pending = Buffer.create 4096 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(** Send one frame (newline included) and return the reply line. *)
let call t frame =
  write_all t.fd frame 0;
  let rec read_line () =
    let buffered = Buffer.contents t.pending in
    match String.index_opt buffered '\n' with
    | Some i ->
      Buffer.clear t.pending;
      Buffer.add_string t.pending
        (String.sub buffered (i + 1) (String.length buffered - i - 1));
      String.sub buffered 0 i
    | None -> (
      match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
      | 0 -> failwith "compile server closed the connection"
      | n ->
        Buffer.add_subbytes t.pending t.chunk 0 n;
        read_line ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ())
  in
  read_line ()
