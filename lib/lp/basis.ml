open Ipet_num

exception Singular

type eta = {
  erow : int;            (* internal pivot row *)
  epiv : Rat.t;          (* pivot value, nonzero *)
  eidx : int array;      (* off-pivot internal rows *)
  evals : Rat.t array;   (* matching values *)
}

type t = {
  m : int;
  mutable etas : eta array;     (* in application (oldest-first) order *)
  mutable n : int;
  int_of_ext : int array;       (* internal position of external row i *)
  mutable perm_trivial : bool;
  scratch : Rat.t array;        (* length m, kept all-zero between uses *)
  (* elimination state, length m: the internal rows pivoted so far, and
     the touched support of the column being eliminated *)
  pivoted : bool array;
  touched : int array;
  in_touch : bool array;
}

let dummy_eta = { erow = 0; epiv = Rat.one; eidx = [||]; evals = [||] }

let create m =
  { m;
    etas = Array.make (max 16 (m / 2)) dummy_eta;
    n = 0;
    int_of_ext = Array.init m (fun i -> i);
    perm_trivial = true;
    scratch = Array.make m Rat.zero;
    pivoted = Array.make m false;
    touched = Array.make m 0;
    in_touch = Array.make m false }

let push t e =
  if t.n = Array.length t.etas then begin
    let bigger = Array.make (2 * t.n + 16) dummy_eta in
    Array.blit t.etas 0 bigger 0 t.n;
    t.etas <- bigger
  end;
  t.etas.(t.n) <- e;
  t.n <- t.n + 1

(* v := E⁻¹ v for one eta: v.(erow) <- v.(erow)/epiv, then eliminate *)
let apply_eta e v =
  let vr = v.(e.erow) in
  if not (Rat.is_zero vr) then begin
    let vr = Rat.div vr e.epiv in
    v.(e.erow) <- vr;
    for k = 0 to Array.length e.eidx - 1 do
      let i = Array.unsafe_get e.eidx k in
      v.(i) <- Rat.sub v.(i) (Rat.mul (Array.unsafe_get e.evals k) vr)
    done
  end

(* y := E⁻ᵀ y: only y.(erow) changes *)
let apply_eta_t e y =
  let acc = ref y.(e.erow) in
  for k = 0 to Array.length e.eidx - 1 do
    let yv = Array.unsafe_get y (Array.unsafe_get e.eidx k) in
    if not (Rat.is_zero yv) then
      acc := Rat.sub !acc (Rat.mul (Array.unsafe_get e.evals k) yv)
  done;
  y.(e.erow) <- Rat.div !acc e.epiv

let apply_perm t v =
  if not t.perm_trivial then begin
    let s = t.scratch in
    for i = 0 to t.m - 1 do
      s.(i) <- v.(i)
    done;
    for i = 0 to t.m - 1 do
      v.(i) <- s.(t.int_of_ext.(i))
    done;
    Array.fill s 0 t.m Rat.zero
  end

let apply_perm_t t v =
  if not t.perm_trivial then begin
    let s = t.scratch in
    for i = 0 to t.m - 1 do
      s.(i) <- v.(i)
    done;
    for i = 0 to t.m - 1 do
      v.(t.int_of_ext.(i)) <- s.(i)
    done;
    Array.fill s 0 t.m Rat.zero
  end

let ftran t v =
  for k = 0 to t.n - 1 do
    apply_eta t.etas.(k) v
  done;
  apply_perm t v

let btran t y =
  apply_perm_t t y;
  for k = t.n - 1 downto 0 do
    apply_eta_t t.etas.(k) y
  done

let append t ~pivot_row ~alpha =
  (* convert the externally-indexed column into internal indexing:
     α_int.(int_of_ext.(j)) = α.(j) *)
  let erow_int = t.int_of_ext.(pivot_row) in
  let count = ref 0 in
  for j = 0 to t.m - 1 do
    if j <> pivot_row && not (Rat.is_zero alpha.(j)) then incr count
  done;
  let eidx = Array.make !count 0 and evals = Array.make !count Rat.zero in
  let k = ref 0 in
  for j = 0 to t.m - 1 do
    if j <> pivot_row && not (Rat.is_zero alpha.(j)) then begin
      eidx.(!k) <- t.int_of_ext.(j);
      evals.(!k) <- alpha.(j);
      incr k
    end
  done;
  let epiv = alpha.(pivot_row) in
  assert (not (Rat.is_zero epiv));
  push t { erow = erow_int; epiv; eidx; evals }

(* The column-elimination kernel of [refactor]: load [c]
   into the all-zero scratch, run it through the etas built so far
   (tracking the touched support to avoid O(m) clears), pivot it on the
   smallest unpivoted internal row where its image is nonzero and push
   that eta. Returns the pivot row, or -1 with nothing pushed when the
   image is zero on every unpivoted row. The scratch is all-zero again on
   return. *)
let eliminate_col t (c : Sparse.col) =
  let v = t.scratch and touched = t.touched and in_touch = t.in_touch in
  let ntouch = ref 0 in
  let touch i =
    if not in_touch.(i) then begin
      in_touch.(i) <- true;
      touched.(!ntouch) <- i;
      incr ntouch
    end
  in
  for k = 0 to Array.length c.Sparse.rows - 1 do
    let i = c.Sparse.rows.(k) in
    touch i;
    v.(i) <- Rat.add v.(i) c.Sparse.vals.(k)
  done;
  for k = 0 to t.n - 1 do
    let e = t.etas.(k) in
    let vr = v.(e.erow) in
    if not (Rat.is_zero vr) then begin
      let vr = Rat.div vr e.epiv in
      v.(e.erow) <- vr;
      for l = 0 to Array.length e.eidx - 1 do
        let i = e.eidx.(l) in
        let d = Rat.mul e.evals.(l) vr in
        if not (Rat.is_zero d) then begin
          touch i;
          v.(i) <- Rat.sub v.(i) d
        end
      done
    end
  done;
  let r = ref (-1) in
  for k = 0 to !ntouch - 1 do
    let i = touched.(k) in
    if (not t.pivoted.(i)) && (not (Rat.is_zero v.(i))) && (!r = -1 || i < !r)
    then r := i
  done;
  let r = !r in
  if r >= 0 then begin
    let noff = ref 0 in
    for k = 0 to !ntouch - 1 do
      let i = touched.(k) in
      if i <> r && not (Rat.is_zero v.(i)) then incr noff
    done;
    let eidx = Array.make !noff 0 and evals = Array.make !noff Rat.zero in
    let l = ref 0 in
    for k = 0 to !ntouch - 1 do
      let i = touched.(k) in
      if i <> r && not (Rat.is_zero v.(i)) then begin
        eidx.(!l) <- i;
        evals.(!l) <- v.(i);
        incr l
      end
    done;
    push t { erow = r; epiv = v.(r); eidx; evals };
    t.pivoted.(r) <- true
  end;
  for k = 0 to !ntouch - 1 do
    v.(touched.(k)) <- Rat.zero;
    in_touch.(touched.(k)) <- false
  done;
  r

let refactor t ~col_of ~basis =
  let m = t.m in
  t.n <- 0;
  Array.fill t.pivoted 0 m false;
  (* process sparsest columns first: unit slack/artificial columns produce
     trivial etas and no fill; ties broken by row for determinism *)
  let order = Array.init m (fun i -> i) in
  Array.sort
    (fun i j ->
      let ni = Array.length (col_of basis.(i)).Sparse.rows
      and nj = Array.length (col_of basis.(j)).Sparse.rows in
      if ni <> nj then compare ni nj else compare i j)
    order;
  Array.iter
    (fun ext_row ->
      let r = eliminate_col t (col_of basis.(ext_row)) in
      if r < 0 then raise Singular;
      t.int_of_ext.(ext_row) <- r)
    order;
  let trivial = ref true in
  for i = 0 to m - 1 do
    if t.int_of_ext.(i) <> i then trivial := false
  done;
  t.perm_trivial <- !trivial
