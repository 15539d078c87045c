open Ipet_num

type solution = { value : Rat.t; xstruct : Rat.t array }

type verdict = Optimal of solution | Infeasible | Unbounded

type run = { verdict : verdict; pivots : int; refactors : int }

(* [vertex_state]'s signal that its point is not a vertex of the LP *)
exception Stuck

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
  { value = !value; xstruct }

let full_cost inst cost =
  let cost_full = Array.make inst.Sparse.ncols Rat.zero in
  Array.blit cost 0 cost_full 0 inst.Sparse.nstruct;
  cost_full

(* the all-slack/artificial identity basis, every nonbasic column at 0 *)
let cold_state inst =
  let m = inst.Sparse.nrows in
  let basic = Array.make inst.Sparse.ncols false in
  let basis = Array.copy inst.Sparse.row_basis in
  Array.iter (fun j -> basic.(j) <- true) basis;
  { inst; basic; basis;
    beta = Array.copy inst.Sparse.rhs;
    fac = Basis.create m;
    updates = 0; npivots = 0; nrefactors = 0;
    y = Array.make m Rat.zero;
    alpha = Array.make m Rat.zero }

(* phase 2 from a feasible basis whose artificials are nonbasic or sit at
   zero in redundant rows; on [Optimal], [st.y] holds the final basis's
   row prices, the pricing vector of the last iteration *)
let phase2 st ~cost_full =
  let art_start = st.inst.Sparse.art_start in
  match phase st ~cost:cost_full ~allowed:(fun j -> j < art_start) with
  | `Unbounded -> Unbounded
  | `Optimal -> Optimal (extract st ~cost:cost_full)

(* phase 1 from the identity basis, then [drive_out] and phase 2 *)
let cold st ~cost_full =
  let inst = st.inst in
  let m = inst.Sparse.nrows and ncols = inst.Sparse.ncols in
  let art_start = inst.Sparse.art_start in
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
  if feasible then phase2 st ~cost_full else Infeasible

let finish st verdict =
  { verdict; pivots = st.npivots; refactors = st.nrefactors }

let solve_primal inst ~cost =
  let st = cold_state inst in
  finish st (cold st ~cost_full:(full_cost inst cost))

(* The basis of the vertex [start] (structural values), factored in one
   sparse elimination pass without pricing or ratio tests. The candidates
   are every positive column, structural then slack/surplus, in column
   order, then the zero-valued real columns in column order; each is
   pivoted on the smallest unpivoted row where its image under the etas so
   far is nonzero and becomes that row's basic column, or is skipped when
   it depends on the columns already taken. A skipped positive column
   means [start] is not a vertex. The pass stops once every row is
   covered. A row left uncovered keeps its unit column, an artificial (a
   row with a slack or surplus is always covered): the row is redundant
   and its artificial stays basic at zero. Then [beta = B^-1 b] is
   recomputed and checked rather than trusted. [drive_out] has nothing to
   do here: a column the pass skipped has a zero image on every row still
   unpivoted, and each later eta pivots on a row where that image is
   zero, so no real column has a nonzero entry in an uncovered row.
   @raise Stuck when [start] is negative, violates a row, or its positive
   columns are linearly dependent (a point that is not a vertex). *)
let vertex_state inst ~start =
  let m = inst.Sparse.nrows and ncols = inst.Sparse.ncols in
  let nstruct = inst.Sparse.nstruct and art_start = inst.Sparse.art_start in
  if Array.length start <> nstruct then invalid_arg "Revised.solve_at";
  let x = Array.make ncols Rat.zero in
  let act = Array.make m Rat.zero in
  Array.iteri
    (fun j v ->
      let s = Rat.sign v in
      if s < 0 then raise Stuck;
      if s > 0 then begin
        x.(j) <- v;
        let c = inst.Sparse.cols.(j) in
        for k = 0 to Array.length c.Sparse.rows - 1 do
          let r = c.Sparse.rows.(k) in
          act.(r) <- Rat.add act.(r) (Rat.mul v c.Sparse.vals.(k))
        done
      end)
    start;
  (* a slack/surplus is a unit column that takes up its row's residual; a
     row without one must hold with equality *)
  let has_slack = Array.make m false in
  for j = nstruct to art_start - 1 do
    let c = inst.Sparse.cols.(j) in
    let r = c.Sparse.rows.(0) in
    let v = Rat.div (Rat.sub inst.Sparse.rhs.(r) act.(r)) c.Sparse.vals.(0) in
    if Rat.sign v < 0 then raise Stuck;
    x.(j) <- v;
    has_slack.(r) <- true
  done;
  for r = 0 to m - 1 do
    if (not has_slack.(r)) && not (Rat.equal act.(r) inst.Sparse.rhs.(r)) then
      raise Stuck
  done;
  let st = cold_state inst in
  let covered = ref 0 in
  let take q =
    match Basis.eliminate st.fac inst.Sparse.cols.(q) with
    | None -> false
    | Some r ->
      st.basic.(st.basis.(r)) <- false;
      st.basis.(r) <- q;
      st.basic.(q) <- true;
      incr covered;
      true
  in
  for q = 0 to art_start - 1 do
    if Rat.sign x.(q) > 0 && not (take q) then raise Stuck
  done;
  let q = ref 0 in
  while !covered < m && !q < art_start do
    if Rat.is_zero x.(!q) then ignore (take !q);
    incr q
  done;
  st.nrefactors <- 1;
  (* every nonbasic column sits at 0, so x_B = B^-1 b *)
  Array.blit inst.Sparse.rhs 0 st.beta 0 m;
  Basis.ftran st.fac st.beta;
  for i = 0 to m - 1 do
    if Rat.sign st.beta.(i) < 0
       || (st.basis.(i) >= art_start && not (Rat.is_zero st.beta.(i)))
    then raise Stuck
  done;
  st

type priced = { run : run; prices : Rat.t array; started : bool }

let solve_at inst ~cost ~start =
  let cost_full = full_cost inst cost in
  let priced st verdict ~started =
    { run = finish st verdict; prices = Array.copy st.y; started }
  in
  match vertex_state inst ~start with
  | st -> priced st (phase2 st ~cost_full) ~started:true
  | exception Stuck ->
    let st = cold_state inst in
    priced st (cold st ~cost_full) ~started:false
