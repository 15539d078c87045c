type config = { size_bytes : int; line_bytes : int; miss_penalty : int }

let i960kb = { size_bytes = 512; line_bytes = 16; miss_penalty = 8 }

type t = {
  cfg : config;
  tags : int array;  (* -1 = invalid, otherwise the line tag *)
  mutable hit_count : int;
  mutable miss_count : int;
}

type field = Size_bytes | Line_bytes | Miss_penalty

let max_size_bytes = 1 lsl 20
let max_miss_penalty = 1 lsl 20

let check cfg =
  let error field fmt = Printf.ksprintf (fun m -> Error (field, m)) fmt in
  if cfg.line_bytes <= 0 || cfg.line_bytes land (cfg.line_bytes - 1) <> 0 then
    error Line_bytes "line size %d is not a power of two" cfg.line_bytes
  else if cfg.size_bytes <= 0 || cfg.size_bytes mod cfg.line_bytes <> 0 then
    error Size_bytes "capacity %d is not a positive multiple of the %d-byte line"
      cfg.size_bytes cfg.line_bytes
  else if cfg.size_bytes > max_size_bytes then
    error Size_bytes "capacity %d exceeds %d bytes" cfg.size_bytes
      max_size_bytes
  else if cfg.miss_penalty < 0 then
    error Miss_penalty "miss penalty %d is negative" cfg.miss_penalty
  else if cfg.miss_penalty > max_miss_penalty then
    error Miss_penalty "miss penalty %d exceeds %d cycles" cfg.miss_penalty
      max_miss_penalty
  else Ok cfg

let create cfg =
  match check cfg with
  | Error (_, msg) -> invalid_arg ("Icache.create: " ^ msg)
  | Ok cfg ->
    { cfg;
      tags = Array.make (cfg.size_bytes / cfg.line_bytes) (-1);
      hit_count = 0;
      miss_count = 0 }

let config t = t.cfg

let slot_of cfg addr =
  let line = addr / cfg.line_bytes in
  let index = line mod (cfg.size_bytes / cfg.line_bytes) in
  (index, line)

let slot t addr = slot_of t.cfg addr

let lookup t addr =
  let index, line = slot t addr in
  t.tags.(index) = line

let access t addr =
  let index, line = slot t addr in
  if t.tags.(index) = line then begin
    t.hit_count <- t.hit_count + 1;
    true
  end
  else begin
    t.tags.(index) <- line;
    t.miss_count <- t.miss_count + 1;
    false
  end

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1)

let tag_array t = t.tags

let hits t = t.hit_count
let misses t = t.miss_count

let lines_spanned cfg ~addr ~size =
  if size <= 0 then 0
  else (addr + size - 1) / cfg.line_bytes - (addr / cfg.line_bytes) + 1

(* consecutive lines of a direct-mapped cache map to distinct sets
   exactly when there are no more of them than sets *)
let resident cfg ~lo ~hi =
  hi > lo
  && lines_spanned cfg ~addr:lo ~size:(hi - lo)
     <= cfg.size_bytes / cfg.line_bytes
