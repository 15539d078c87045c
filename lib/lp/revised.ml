open Ipet_num

type solution = { value : Rat.t; xstruct : Rat.t array; prices : Rat.t array }

type verdict = Optimal of solution | Infeasible | Unbounded

type run = { verdict : verdict; pivots : int; refactors : int }

(* eta updates between basis refactorizations *)
let refactor_every = 64

type state = {
  inst : Sparse.t;
  basic : bool array;        (* ncols; every nonbasic column sits at 0 *)
  basis : int array;         (* nrows: basic column of each row *)
  beta : Rat.t array;        (* nrows: values of the basic variables *)
  fac : Basis.t;
  mutable updates : int;     (* eta updates since the last refactorization *)
  mutable npivots : int;
  mutable nrefactors : int;
  (* dense scratch, length nrows *)
  y : Rat.t array;
  alpha : Rat.t array;
}

let load_col st dst j =
  let c = st.inst.Sparse.cols.(j) in
  for k = 0 to Array.length c.Sparse.rows - 1 do
    dst.(c.Sparse.rows.(k)) <- c.Sparse.vals.(k)
  done

let maybe_refactor st =
  st.updates <- st.updates + 1;
  if st.updates >= refactor_every then begin
    Basis.refactor st.fac
      ~col_of:(fun j -> st.inst.Sparse.cols.(j))
      ~basis:st.basis;
    st.nrefactors <- st.nrefactors + 1;
    st.updates <- 0
  end

(* column [q] replaces the basic column of row [r]; [st.alpha] holds the
   FTRAN image of [q] *)
let pivot st ~r ~q =
  st.basic.(st.basis.(r)) <- false;
  st.basis.(r) <- q;
  st.basic.(q) <- true;
  Basis.append st.fac ~pivot_row:r ~alpha:st.alpha;
  st.npivots <- st.npivots + 1

(* One primal iteration for entering column [q], raised from 0. Basic
   values follow x_B = beta - t*alpha with t >= 0 the move length. *)
let primal_step st ~q =
  let m = st.inst.Sparse.nrows in
  Array.fill st.alpha 0 m Rat.zero;
  load_col st st.alpha q;
  Basis.ftran st.fac st.alpha;
  (* ratio test: min blocking t over the rows whose basic variable falls
     to 0; ties to the smallest basic column (Bland), exactly the dense
     tableau's tie-break *)
  let best = ref None in (* (t, row) *)
  for i = 0 to m - 1 do
    let a = st.alpha.(i) in
    if Rat.sign a > 0 then begin
      let t = Rat.div st.beta.(i) a in
      match !best with
      | None -> best := Some (t, i)
      | Some (bt, br) ->
        let c = Rat.compare t bt in
        if c < 0 || (c = 0 && st.basis.(i) < st.basis.(br)) then
          best := Some (t, i)
    end
  done;
  match !best with
  | None -> `Unbounded
  | Some (t, r) ->
    for i = 0 to m - 1 do
      if i <> r && not (Rat.is_zero st.alpha.(i)) then
        st.beta.(i) <- Rat.sub st.beta.(i) (Rat.mul t st.alpha.(i))
    done;
    st.beta.(r) <- t;
    pivot st ~r ~q;
    maybe_refactor st;
    `Step

(* one phase of maximization; [allowed j] filters enterable columns *)
let rec phase st ~cost ~allowed =
  let m = st.inst.Sparse.nrows and ncols = st.inst.Sparse.ncols in
  (* pricing vector y = B^-T c_B, recomputed each iteration *)
  for i = 0 to m - 1 do
    st.y.(i) <- cost.(st.basis.(i))
  done;
  Basis.btran st.fac st.y;
  (* Bland: smallest column with a positive reduced cost *)
  let rec entering j =
    if j >= ncols then None
    else if (not st.basic.(j)) && allowed j
            && Rat.sign (Rat.sub cost.(j) (Sparse.col_dot st.inst st.y j)) > 0
    then Some j
    else entering (j + 1)
  in
  match entering 0 with
  | None -> `Optimal
  | Some q ->
    (match primal_step st ~q with
     | `Unbounded -> `Unbounded
     | `Step -> phase st ~cost ~allowed)

(* After a feasible phase 1, pivot zero-level basic artificials onto the
   first real column with a nonzero tableau entry in their row, exactly
   like the dense solver; rows admitting no such column are redundant and
   keep their artificial basic at level zero. *)
let drive_out st =
  let m = st.inst.Sparse.nrows in
  let art_start = st.inst.Sparse.art_start in
  for i = 0 to m - 1 do
    if st.basis.(i) >= art_start then begin
      (* rho = row i of B^-1 *)
      Array.fill st.y 0 m Rat.zero;
      st.y.(i) <- Rat.one;
      Basis.btran st.fac st.y;
      let rec find j =
        if j >= art_start then None
        else if (not st.basic.(j))
                && not (Rat.is_zero (Sparse.col_dot st.inst st.y j))
        then Some j
        else find (j + 1)
      in
      match find 0 with
      | None -> () (* redundant row; harmless to keep *)
      | Some j ->
        Array.fill st.alpha 0 m Rat.zero;
        load_col st st.alpha j;
        Basis.ftran st.fac st.alpha;
        (* the artificial sits at zero, so the swap moves nothing: the
           entering column stays at 0 *)
        st.beta.(i) <- Rat.zero;
        pivot st ~r:i ~q:j;
        maybe_refactor st
    end
  done

let extract st ~cost =
  let inst = st.inst in
  let m = inst.Sparse.nrows in
  let nstruct = inst.Sparse.nstruct in
  let xstruct = Array.make nstruct Rat.zero in
  let value = ref Rat.zero in
  for i = 0 to m - 1 do
    let b = st.basis.(i) in
    if b < nstruct then xstruct.(b) <- st.beta.(i);
    let c = cost.(b) in
    if not (Rat.is_zero c) then value := Rat.add !value (Rat.mul c st.beta.(i))
  done;
  { value = !value; xstruct; prices = Array.copy st.y }

(* Phase 1 from the all-slack/artificial identity basis (every nonbasic
   column at 0), then [drive_out] and phase 2. On [Optimal], [st.y] holds
   the final basis's row prices, the pricing vector of the last
   iteration. *)
let solve_primal inst ~cost =
  let m = inst.Sparse.nrows and ncols = inst.Sparse.ncols in
  let art_start = inst.Sparse.art_start in
  let basic = Array.make ncols false in
  let basis = Array.copy inst.Sparse.row_basis in
  Array.iter (fun j -> basic.(j) <- true) basis;
  let st =
    { inst; basic; basis;
      beta = Array.copy inst.Sparse.rhs;
      fac = Basis.create m;
      updates = 0; npivots = 0; nrefactors = 0;
      y = Array.make m Rat.zero;
      alpha = Array.make m Rat.zero }
  in
  let feasible =
    if art_start = ncols then true
    else begin
      (* phase 1: maximize -sum(artificials) up to 0 *)
      let cost1 = Array.make ncols Rat.zero in
      for j = art_start to ncols - 1 do
        cost1.(j) <- Rat.minus_one
      done;
      (match phase st ~cost:cost1 ~allowed:(fun _ -> true) with
       | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
       | `Optimal -> ());
      let art_level = ref Rat.zero in
      for i = 0 to m - 1 do
        if st.basis.(i) >= art_start then
          art_level := Rat.add !art_level st.beta.(i)
      done;
      if Rat.sign !art_level > 0 then false
      else begin
        drive_out st;
        true
      end
    end
  in
  let verdict =
    if not feasible then Infeasible
    else begin
      let cost_full = Array.make ncols Rat.zero in
      Array.blit cost 0 cost_full 0 inst.Sparse.nstruct;
      match phase st ~cost:cost_full ~allowed:(fun j -> j < art_start) with
      | `Unbounded -> Unbounded
      | `Optimal -> Optimal (extract st ~cost:cost_full)
    end
  in
  { verdict; pivots = st.npivots; refactors = st.nrefactors }
