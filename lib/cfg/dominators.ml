(* Cooper-Harvey-Kennedy: iterate [idom(b) = intersect of processed preds]
   over reverse postorder until fixpoint, with the classic two-finger
   intersection walking up the idom tree by RPO number. *)

type t = { idoms : int array; rpo_number : int array }

let compute cfg =
  let n = Cfg.nblocks cfg in
  let rpo = Cfg.reverse_postorder cfg in
  let rpo_number = Array.make n max_int in
  Array.iteri (fun i b -> rpo_number.(b) <- i) rpo;
  let idoms = Array.make n (-1) in
  let entry = Cfg.entry cfg in
  idoms.(entry) <- entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_number.(a) > rpo_number.(b) then intersect idoms.(a) b
    else intersect a idoms.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let processed =
            List.filter (fun p -> idoms.(p) >= 0) (Cfg.preds cfg b)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idoms.(b) <> new_idom then begin
              idoms.(b) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  (* unreachable blocks: make them self-dominating so queries terminate *)
  for b = 0 to n - 1 do
    if idoms.(b) < 0 then idoms.(b) <- b
  done;
  { idoms; rpo_number }

let idom t b = t.idoms.(b)

let dominates t a b =
  let rec climb x =
    if x = a then true
    else begin
      let up = t.idoms.(x) in
      if up = x then false else climb up
    end
  in
  climb b
