(* [chunk.[pos, len)] is read but not yet returned; [buf] holds the start
   of a line that spans reads *)
type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; buf = Buffer.create 256; chunk = Bytes.create 65536; pos = 0; len = 0 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_line t line =
  let b = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + Unix.write t.fd b off (len - off))
  in
  go 0

(* only the bytes not scanned before are scanned, and a line is copied
   out once, when its newline arrives *)
let recv_line t =
  let rec scan i =
    if i = t.len then begin
      Buffer.add_subbytes t.buf t.chunk t.pos (t.len - t.pos);
      t.pos <- 0;
      t.len <- 0;
      match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
      | 0 ->
        let rest = Buffer.contents t.buf in
        Buffer.clear t.buf;
        if rest = "" then None else Some rest
      | n ->
        t.len <- n;
        scan 0
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan 0
    end
    else if Bytes.get t.chunk i <> '\n' then scan (i + 1)
    else begin
      let line =
        if Buffer.length t.buf = 0 then Bytes.sub_string t.chunk t.pos (i - t.pos)
        else begin
          Buffer.add_subbytes t.buf t.chunk t.pos (i - t.pos);
          let line = Buffer.contents t.buf in
          Buffer.clear t.buf;
          line
        end
      in
      t.pos <- i + 1;
      Some line
    end
  in
  scan t.pos

let request t line =
  send_line t line;
  recv_line t

let one_shot ~socket line =
  let t = connect socket in
  Fun.protect ~finally:(fun () -> close t) (fun () -> request t line)
