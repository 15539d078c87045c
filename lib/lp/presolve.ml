(* Fixpoint presolve over exact rationals.

   Rows are normalized to [expr <= 0] / [expr = 0] (Ge rows are negated on
   intake). Two bound stores drive the reductions: explicit bounds come
   from singleton rows that were folded away (and are re-emitted on output,
   so dropping their rows never loses information), and the implicit
   [x >= 0] of every variable. Every bound is one the output keeps, so any
   reduction may rely on any bound.

   Variable elimination records definitions most-recent-first; postsolve
   replays them in that order, so a definition may freely mention variables
   that were eliminated later.

   No reduction reads the objective, so the fixpoint runs over the
   constraints alone and each objective is reduced afterwards ([emit]):
   replaying the definitions into it, oldest first, performs exactly the
   substitutions the fixpoint performed on the rows.

   A substitution touches only the rows that mention the variable: a
   variable -> rows occurrence index, kept as cons lists, holds every row
   in which the variable has a nonzero coefficient. Entries are never
   removed one by one; an entry goes stale when its row dies or the
   variable cancels out of it (a row indexed twice under one variable is
   the same case after its first rewrite), and a substitution skips stale
   entries by reading the coefficient. Rows that an elimination creates
   wait in a per-pass pending list and join [rows] after the pass, in
   creation order, so every pass visits the rows in the same order as a
   fixpoint that appended them at once.

   A variable is its column in the constraints' numbering
   ([Lp_problem.Columns]): its rank among their distinct names. Rows are
   int-keyed coefficient maps and the bounds, their sources and the
   occurrence index are arrays indexed by column. Columns follow name
   order, so every fold over a row visits its terms in the order of the
   [Linexpr] it came from, and the output does not depend on the
   numbering. [emit] replays the definitions into a dense objective
   array and postsolve rebuilds the witness in a dense value array, so
   names come back only in the reduced problem, in the assignment
   postsolve returns and in the reasons of [Infeasible]. An objective
   variable that no constraint mentions has no column; it passes through
   both unchanged.

   Made with [~lift:true], the fixpoint also logs what the dual lift
   ([lift_duals]) reads: each elimination, fix and forcing row, with the
   rows each substitution rewrote and the coefficient it found there,
   and each explicit bound keeps the singleton row it came from. Rows
   that die without a trace (redundant, duplicate, empty, constant) need
   no record: their multiplier is 0. *)

open Ipet_num

type stats = {
  vars_before : int;
  vars_after : int;
  constrs_before : int;
  constrs_after : int;
  rounds : int;
  substituted : int;
  fixed : int;
}

type reduction = {
  problem : Lp_problem.t;
  postsolve : (string * Rat.t) list -> (string * Rat.t) list;
  stats : stats;
}

type outcome =
  | Reduced of reduction
  | Proved_infeasible of { stats : stats; reason : string }

exception Infeasible of string

module C = Lp_problem.Columns

let max_rounds = 20
let max_def_terms = 64

(* --- rows over columns ---------------------------------------------------- *)

module Cols = Map.Make (Int)

(* [const + Σ c·v] over columns; no coefficient is zero *)
type expr = { terms : Rat.t Cols.t; const : Rat.t }

let fold f e acc = Cols.fold f e.terms acc
let coeff e v = match Cols.find_opt v e.terms with Some c -> c | None -> Rat.zero
let neg e = { terms = Cols.map Rat.neg e.terms; const = Rat.neg e.const }

(* [e + c·(d - v)], where [c] is [v]'s coefficient in [e] and [d] does
   not mention [v] *)
let add_step e c v d =
  let add_term w a terms =
    Cols.update w
      (function
        | None -> Some (Rat.mul c a)
        | Some b ->
          let s = Rat.add b (Rat.mul c a) in
          if Rat.is_zero s then None else Some s)
      terms
  in
  { terms = Cols.fold add_term d.terms (Cols.remove v e.terms);
    const = Rat.add e.const (Rat.mul c d.const) }

let to_linexpr cols e =
  fold
    (fun v c acc -> Linexpr.add acc (Linexpr.var ~coeff:c (C.name cols v)))
    e (Linexpr.const e.const)

type row = {
  mutable expr : expr;
  rel : Lp_problem.relation;  (* Le or Eq; never Ge *)
  origin : string;
  idx : int;  (* intake position, for order-preserving emission *)
  id : int;  (* unique; an intake row's is its intake position *)
  mutable live : bool;
}

(* an explicit bound, folded from the singleton row [src] in which its
   variable's coefficient had absolute value [scale]: the bound row is
   [src]'s expression divided by [scale], unless rounding tightened it
   ([exact] is false) *)
type bound = { value : Rat.t; src : row; scale : Rat.t; exact : bool }

(* One substitution [v := e], the [k]th: the rows it rewrote, with [v]'s
   coefficient in each just before, are entries [first .. last - 1] of the
   state's touch buffers. *)
type step = { k : int; first : int; last : int }

(* The reductions the dual lift reverses, newest first in [state.log]. *)
type event =
  | Eliminated of { step : step; row : row; coeff : Rat.t;
                    moved : (row * Rat.t * bound) list }
      (* [v] defined by the equality [row], where its coefficient was
         [coeff] (a singleton equality's fix too); [moved] are the rows its
         explicit bounds became, each with [v]'s coefficient in the bound
         row it replaces *)
  | Pinched of { step : step; lower : bound option; upper : bound option }
      (* fixed where its lower and upper bound met; [None] is [v >= 0] *)
  | Forced of { row : row; pins : (step * Rat.t * bound option) list }
      (* [row <= 0] at its minimum pinned each variable, listed with its
         coefficient there, to its min-side bound ([None] is [v >= 0]) *)

type state = {
  integer : bool;
  record : bool;  (* log what the dual lift reads *)
  cols : C.t;
  mutable rows : row list;  (* in original order; killed rows keep their slot *)
  mutable pending : row list;  (* made by this pass's eliminations, newest first *)
  occ : row list array;  (* column -> rows that may mention it *)
  mutable defs : (int * expr) list;  (* most recent first *)
  ub : bound option array;
  lb : bound option array;  (* always > 0 *)
  mutable log : event list;  (* newest first *)
  (* every substitution's rewritten rows and coefficients, in order: flat
     buffers, grown by doubling, so recording a row costs two stores *)
  mutable touched_rows : row array;
  mutable touched_coeffs : Rat.t array;
  mutable touched : int;
  mutable next_id : int;
  mutable steps : int;
  mutable changed : bool;
  mutable substituted : int;
  mutable fixed : int;
}

let round_down st b = if st.integer then Rat.of_bigint (Rat.floor b) else b
let round_up st b = if st.integer then Rat.of_bigint (Rat.ceil b) else b

(* --- bounds -------------------------------------------------------------- *)

let lb st v = match st.lb.(v) with Some b -> b.value | None -> Rat.zero

let term_count e = Cols.cardinal e.terms

(* --- substitution -------------------------------------------------------- *)

(* list [r] under each column of [e] *)
let index st r e = fold (fun v _ () -> st.occ.(v) <- r :: st.occ.(v)) e ()

let touch st r c =
  if st.record then begin
    let n = st.touched in
    if n = Array.length st.touched_rows then begin
      let grow a = Array.append a (Array.make n a.(0)) in
      st.touched_rows <- grow st.touched_rows;
      st.touched_coeffs <- grow st.touched_coeffs
    end;
    st.touched_rows.(n) <- r;
    st.touched_coeffs.(n) <- c;
    st.touched <- n + 1
  end

(* [v := e] in every live row that mentions [v]; no row mentions [v]
   afterwards, so its index entry goes. A [guard] row, [-e <= 0], is
   recorded as a row that had [v]'s coefficient -1: it is [v >= 0]
   rewritten. *)
let substitute ?guard st v e =
  st.defs <- (v, e) :: st.defs;
  let first = st.touched in
  Option.iter (fun g -> touch st g Rat.minus_one) guard;
  st.ub.(v) <- None;
  st.lb.(v) <- None;
  let rs = st.occ.(v) in
  st.occ.(v) <- [];
  List.iter
    (fun r ->
      if r.live then begin
        let c = coeff r.expr v in
        if not (Rat.is_zero c) then begin
          touch st r c;
          r.expr <- add_step r.expr c v e;
          index st r e
        end
      end)
    rs;
  st.changed <- true;
  let k = st.steps in
  st.steps <- k + 1;
  { k; first; last = st.touched }

let log st event = if st.record then st.log <- event :: st.log

let fix st v value ~why =
  let fail what =
    raise
      (Infeasible
         (Printf.sprintf "%s fixes %s %s" why (C.name st.cols v) what))
  in
  if st.integer && not (Rat.is_integer value) then
    fail ("to the fractional value " ^ Rat.to_string value);
  if Rat.sign value < 0 then fail "to a negative value";
  if Rat.compare value (lb st v) < 0 then fail "below its lower bound";
  (match st.ub.(v) with
   | Some u when Rat.compare value u.value > 0 -> fail "above its upper bound"
   | Some _ | None -> ());
  st.fixed <- st.fixed + 1;
  substitute st v { terms = Cols.empty; const = value }

(* after a bound update: detect conflicts and pinch-fixed variables *)
let check_bounds st v ~why =
  match st.ub.(v) with
  | None -> ()
  | Some u ->
    let l = lb st v in
    let c = Rat.compare u.value l in
    if c < 0 then
      raise
        (Infeasible
           (Printf.sprintf "%s leaves %s with an empty range" why
              (C.name st.cols v)))
    else if c = 0 then begin
      let lower = st.lb.(v) and upper = st.ub.(v) in
      let step = fix st v l ~why in
      log st (Pinched { step; lower; upper })
    end

(* the bound [b] on [v] from the singleton row [src], where [v]'s
   coefficient has absolute value [scale] *)
let tighten_ub st v b ~src ~scale =
  let value = round_down st b in
  (match st.ub.(v) with
   | Some cur when Rat.compare cur.value value <= 0 -> ()
   | Some _ | None ->
     st.ub.(v) <- Some { value; src; scale; exact = Rat.equal value b };
     st.changed <- true);
  check_bounds st v ~why:src.origin

let tighten_lb st v b ~src ~scale =
  let value = round_up st b in
  if Rat.sign value > 0 then begin
    (match st.lb.(v) with
     | Some cur when Rat.compare cur.value value >= 0 -> ()
     | Some _ | None ->
       st.lb.(v) <- Some { value; src; scale; exact = Rat.equal value b };
       st.changed <- true);
    check_bounds st v ~why:src.origin
  end

(* --- activities ---------------------------------------------------------- *)

(* the least and greatest value of an expression over the bounds: each
   the sum of its finite terms and how many of its terms are unbounded *)
type activity = { lo : Rat.t; lo_inf : int; hi : Rat.t; hi_inf : int }

let activity st e =
  let lo = ref e.const and hi = ref e.const in
  let lo_inf = ref 0 and hi_inf = ref 0 in
  fold
    (fun v c () ->
      let pos = Rat.sign c > 0 in
      (match st.lb.(v) with
       | Some b ->
         let m = Rat.mul c b.value in
         if pos then lo := Rat.add !lo m else hi := Rat.add !hi m
       | None -> ());
      match st.ub.(v) with
      | Some b ->
        let m = Rat.mul c b.value in
        if pos then hi := Rat.add !hi m else lo := Rat.add !lo m
      | None -> if pos then incr hi_inf else incr lo_inf)
    e ();
  { lo = !lo; lo_inf = !lo_inf; hi = !hi; hi_inf = !hi_inf }

(* --- row processing ------------------------------------------------------ *)

let kill st r =
  r.live <- false;
  st.changed <- true

(* [expr <= 0] at its minimum activity, which is finite, forces every
   variable to its min-side bound *)
let force st r =
  let pins =
    fold
      (fun v c acc ->
        (v, c, if Rat.sign c > 0 then st.lb.(v) else st.ub.(v)) :: acc)
      r.expr []
  in
  kill st r;
  let pins =
    List.map
      (fun (v, c, side) ->
        let value = match side with Some b -> b.value | None -> Rat.zero in
        (fix st v value ~why:("forcing row " ^ r.origin), c, side))
      pins
  in
  log st (Forced { row = r; pins })

let unsatisfiable r =
  raise (Infeasible ("row cannot be satisfied: " ^ r.origin))

(* the row's minimum activity is finite and has the sign [f] accepts *)
let min_is f a = a.lo_inf = 0 && f (Rat.sign a.lo)
let max_is f a = a.hi_inf = 0 && f (Rat.sign a.hi)

let process_le st r =
  let a = activity st r.expr in
  if min_is (fun s -> s > 0) a then unsatisfiable r
  else if min_is (fun s -> s = 0) a then force st r
  else if max_is (fun s -> s <= 0) a then kill st r  (* implied by the bounds *)

let process_eq st r =
  let a = activity st r.expr in
  if min_is (fun s -> s > 0) a || max_is (fun s -> s < 0) a then
    unsatisfiable r
  else if min_is (fun s -> s = 0) a then force st r

let process_row st r =
  if r.live then begin
    if Cols.is_empty r.expr.terms then begin
      let c = r.expr.const in
      let sat =
        match r.rel with
        | Lp_problem.Le -> Rat.sign c <= 0
        | Lp_problem.Eq -> Rat.is_zero c
        | Lp_problem.Ge -> assert false
      in
      if not sat then
        raise (Infeasible ("row reduced to a false constant: " ^ r.origin));
      kill st r
    end
    else if term_count r.expr = 1 then begin
      (* singleton: fold into the bound tables *)
      let v, a = Cols.choose r.expr.terms in
      let b = Rat.div (Rat.neg r.expr.const) a in
      kill st r;
      match r.rel with
      | Lp_problem.Eq ->
        let step = fix st v b ~why:("row " ^ r.origin) in
        log st (Eliminated { step; row = r; coeff = a; moved = [] })
      | Lp_problem.Le ->
        if Rat.sign a > 0 then tighten_ub st v b ~src:r ~scale:a
        else tighten_lb st v b ~src:r ~scale:(Rat.neg a)
      | Lp_problem.Ge -> assert false
    end
    else
      match r.rel with
      | Lp_problem.Le -> process_le st r
      | Lp_problem.Eq -> process_eq st r
      | Lp_problem.Ge -> assert false
  end

(* --- variable elimination ------------------------------------------------ *)

(* [v]'s definition [-(expr - a·v) / a] from the equality [expr = 0], where
   [a] is [v]'s coefficient *)
let definition expr v a =
  let k = Rat.div Rat.minus_one a in
  { terms = Cols.map (Rat.mul k) (Cols.remove v expr.terms);
    const = Rat.mul k expr.const }

let try_eliminate st r =
  if r.live && r.rel = Lp_problem.Eq
     && (let n = term_count r.expr in n >= 2 && n - 1 <= max_def_terms)
  then begin
    let expr = r.expr in
    (* [v]'s definition is integral when [a] divides the other
       coefficients and the constant *)
    let integral v a =
      let divides c = Rat.is_integer (Rat.div c a) in
      (not st.integer)
      || divides expr.const
         && Cols.for_all (fun w c -> w = v || divides c) expr.terms
    in
    (* [v]'s definition is [-rest / a], [rest] being the row without
       [v]'s term; it is non-negative over the bounds when [rest]'s maximum
       is at most 0 ([a > 0]) or its minimum at least 0 ([a < 0]). Both
       leave out [v]'s term at its upper bound. *)
    let act = lazy (activity st expr) in
    let nonneg v a =
      let act = Lazy.force act in
      let rest m inf =
        match st.ub.(v) with
        | Some b when inf = 0 -> Some (Rat.sub m (Rat.mul a b.value))
        | None when inf = 1 -> Some m
        | Some _ | None -> None
      in
      if Rat.sign a > 0 then
        match rest act.hi act.hi_inf with
        | Some m -> Rat.sign m <= 0
        | None -> false
      else
        match rest act.lo act.lo_inf with
        | Some m -> Rat.sign m >= 0
        | None -> false
    in
    (* the first candidate whose definition is non-negative, else the
       first candidate, which needs a guard row *)
    let rec choose first terms =
      match terms () with
      | Seq.Nil -> Option.map (fun (v, a) -> (v, a, true)) first
      | Seq.Cons ((v, a), rest) ->
        if not (integral v a) then choose first rest
        else if nonneg v a then Some (v, a, false)
        else choose (if first = None then Some (v, a) else first) rest
    in
    match choose None (Cols.to_seq expr.terms) with
    | None -> ()
    | Some (v, a, needs_guard) ->
      let e = definition expr v a in
      kill st r;
      (* the eliminated variable's constraints move onto its definition *)
      let add expr ~origin ~idx =
        let row =
          { expr; rel = Lp_problem.Le; origin; idx; id = st.next_id;
            live = true }
        in
        st.next_id <- st.next_id + 1;
        index st row expr;
        st.pending <- row :: st.pending;
        row
      in
      let move b expr ~coeff =
        (add expr ~origin:b.src.origin ~idx:b.src.idx, coeff, b)
      in
      let below =
        match st.lb.(v) with
        | Some b ->
          [ move b
              { terms = Cols.map Rat.neg e.terms;
                const = Rat.sub b.value e.const }
              ~coeff:Rat.minus_one ]
        | None -> []
      in
      let above =
        match st.ub.(v) with
        | Some b ->
          [ move b { e with const = Rat.sub e.const b.value } ~coeff:Rat.one ]
        | None -> []
      in
      let guard =
        if needs_guard then Some (add (neg e) ~origin:r.origin ~idx:r.idx)
        else None
      in
      let step = substitute ?guard st v e in
      log st (Eliminated { step; row = r; coeff = a; moved = below @ above });
      st.substituted <- st.substituted + 1
  end

(* --- driver -------------------------------------------------------------- *)

module Row_key = Hashtbl.Make (struct
  type t = Lp_problem.relation * expr
  let equal (r1, e1) (r2, e2) =
    r1 = r2 && Rat.equal e1.const e2.const
    && Cols.equal Rat.equal e1.terms e2.terms
  (* [Rat.t] values have one representation each, so the generic hash is
     a value hash *)
  let hash (rel, e) =
    fold
      (fun v c h -> (((h * 31) + v) * 31) + Hashtbl.hash c)
      e ((Hashtbl.hash rel * 31) + Hashtbl.hash e.const)
end)

let dedup st =
  let seen = Row_key.create 64 in
  List.iter
    (fun r ->
      if r.live then begin
        let key = (r.rel, r.expr) in
        if Row_key.mem seen key then kill st r else Row_key.add seen key ()
      end)
    st.rows

let intake cols idx =
  let c = C.row cols idx in
  let expr =
    { terms = C.fold_row Cols.add cols idx Cols.empty;
      const = Linexpr.constant c.Lp_problem.expr }
  in
  let expr, rel =
    match c.Lp_problem.rel with
    | Lp_problem.Le -> (expr, Lp_problem.Le)
    | Lp_problem.Ge -> (neg expr, Lp_problem.Le)
    | Lp_problem.Eq -> (expr, Lp_problem.Eq)
  in
  { expr; rel; origin = c.Lp_problem.origin; idx; id = idx; live = true }

(* Emission preserves the original constraint order: every output row —
   including a re-emitted bound — is placed at the intake position of the
   row it descends from. Keeping the reduced problem a subsequence of the
   original (same variable order, same row order) keeps the simplex
   pivoting deterministic in the same way with and without presolve, which
   is what lets an alternate-optima witness agree between the two paths.
   Each output row comes with its source, which the lift reads: a live
   row, or a re-emitted explicit bound, which takes the slot and origin of
   the singleton row it was folded from. Rows from one slot are ordered by
   their printed form, printed once per row. *)
type source = Live of row | Bound of bound

let source_row = function Live r -> r | Bound b -> b.src

let emit_rows st obj =
  let entry expr rel source = (expr, rel, source, lazy (Linexpr.to_string expr)) in
  let live = Array.make (C.count st.cols) false in
  let rows =
    List.filter_map
      (fun r ->
        if r.live then begin
          fold (fun v _ () -> live.(v) <- true) r.expr ();
          Some (entry (to_linexpr st.cols r.expr) r.rel (Live r))
        end
        else None)
      st.rows
  in
  (* re-emit the explicit bounds of the variables that survived *)
  let bound_rows = ref [] in
  for v = 0 to C.count st.cols - 1 do
    if live.(v) || not (Rat.is_zero obj.(v)) then begin
      let reemit bound row =
        Option.iter
          (fun b ->
            bound_rows :=
              entry
                (row (Linexpr.var (C.name st.cols v)) (Linexpr.const b.value))
                Lp_problem.Le (Bound b)
              :: !bound_rows)
          bound
      in
      reemit st.ub.(v) Linexpr.sub;
      reemit st.lb.(v) (fun x l -> Linexpr.sub l x)
    end
  done;
  List.sort
    (fun (_, _, s1, k1) (_, _, s2, k2) ->
      match compare (source_row s1).idx (source_row s2).idx with
      | 0 -> String.compare (Lazy.force k1) (Lazy.force k2)
      | c -> c)
    (rows @ !bound_rows)
  |> List.map (fun (expr, rel, source, _) ->
         (Lp_problem.constr ~origin:(source_row source).origin expr rel, source))
  |> List.split

type lift = Rat.t array -> Rat.t array option

exception Not_lifted

(* The reverse pass (Andersen & Andersen's dual postsolve). [y] holds the
   multiplier of every row, indexed by id, in the maximization sense: the
   Lagrangian [objective - Σ y_r·expr_r] has no positive coefficient, and
   its constant is the bound. It starts from the reduced problem's
   multipliers and walks the reductions newest first. A substitution
   [v := e] added [c·(e - v)] to each row it touched and [c_obj·(e - v)] to
   the objective, so the multipliers in force leave [γ·(e - v)] on the
   table, [γ] being [v]'s reduced cost just before. A defining row turns
   that into its own multiplier; a fixed variable hands it to the bound
   rows that justified the fix. An explicit bound row is its singleton row
   scaled. A rounded bound with a nonzero multiplier proves more than the
   original rows do, and the lift gives up. *)
let lift_duals st ~obj_coeffs ~flip ~sources duals =
  let neg_if b x = if b then Rat.neg x else x in
  let y = Array.make st.next_id Rat.zero in
  let add r m = y.(r.id) <- Rat.add y.(r.id) m in
  let to_bound b m =
    if not (Rat.is_zero m) then begin
      if not b.exact then raise Not_lifted;
      add b.src (Rat.div m b.scale)
    end
  in
  (* a multiplier [m >= 0] on the bound row of a variable's [side]; [v >= 0]
     takes none *)
  let lean side m = Option.iter (fun b -> to_bound b m) side in
  let gamma (step : step) =
    let g = ref (neg_if flip obj_coeffs.(step.k)) in
    for i = step.first to step.last - 1 do
      g := Rat.sub !g (Rat.mul y.(st.touched_rows.(i).id) st.touched_coeffs.(i))
    done;
    !g
  in
  Array.iteri
    (fun i source ->
      let m = neg_if flip duals.(i) in
      match source with Live r -> add r m | Bound b -> to_bound b m)
    sources;
  List.iter
    (function
      | Eliminated { step; row; coeff; moved } ->
        let g =
          List.fold_left
            (fun g (n, c, b) ->
              let m = y.(n.id) in
              to_bound b m;
              Rat.sub g (Rat.mul m c))
            (gamma step) moved
        in
        add row (Rat.div g coeff)
      | Pinched { step; lower; upper } ->
        let g = gamma step in
        if Rat.sign g > 0 then lean upper g
        else if Rat.sign g < 0 then lean lower (Rat.neg g)
      | Forced { row; pins } ->
        (* the smallest multiplier on [row] that leaves every pin's
           remaining reduced cost pointing into its bound *)
        let pins =
          List.map (fun (step, c, side) -> (gamma step, c, side)) pins
        in
        let u =
          List.fold_left
            (fun u (g, c, _) -> Rat.max u (Rat.div g c))
            Rat.zero pins
        in
        List.iter
          (fun (g, c, side) -> lean side (Rat.abs (Rat.sub g (Rat.mul u c))))
          pins;
        add row u)
    st.log;
  (* an intake [Ge] row was negated *)
  Array.init (C.rows st.cols) (fun i ->
      let ge = (C.row st.cols i).Lp_problem.rel = Lp_problem.Ge in
      neg_if flip (neg_if ge y.(i)))

type fixpoint = {
  cols : C.t;
  rounds : int;
  substituted : int;
  fixed : int;
  reached : (state, string * int) result;
      (* the final state, or why the constraints are infeasible and how
         many rows were live then *)
}

let fixpoint ?(integer = true) ?(lift = false) cols =
  let n = C.count cols and m = C.rows cols in
  let st =
    { integer;
      record = lift;
      cols;
      rows = List.init m (intake cols);
      pending = [];
      occ = Array.make n [];
      defs = [];
      ub = Array.make n None;
      lb = Array.make n None;
      log = [];
      touched_rows =
        Array.make (if lift then 64 else 0)
          { expr = { terms = Cols.empty; const = Rat.zero };
            rel = Lp_problem.Le; origin = ""; idx = -1; id = -1;
            live = false };
      touched_coeffs = Array.make (if lift then 64 else 0) Rat.zero;
      touched = 0;
      next_id = m;
      steps = 0;
      changed = true;
      substituted = 0;
      fixed = 0 }
  in
  List.iter (fun r -> index st r r.expr) st.rows;
  let rounds = ref 0 in
  let reached =
    match
      while st.changed && !rounds < max_rounds do
        st.changed <- false;
        incr rounds;
        dedup st;
        List.iter (process_row st) st.rows;
        List.iter (try_eliminate st) st.rows;
        if st.pending <> [] then begin
          st.rows <- st.rows @ List.rev st.pending;
          st.pending <- []
        end
      done
    with
    | () -> Ok st
    | exception Infeasible reason ->
      Error (reason, List.length (List.filter (fun r -> r.live) st.rows))
  in
  (* [emit] reads the rows, bounds and definitions, never the index *)
  Array.fill st.occ 0 n [];
  { cols;
    rounds = !rounds;
    substituted = st.substituted;
    fixed = st.fixed;
    reached }

let emit fp direction objective =
  let n = C.count fp.cols in
  (* the objective over columns, and its variables that no constraint
     mentions, sorted *)
  let obj, only = C.objective fp.cols objective in
  let only = Array.of_list only in
  let k = Array.length only in
  let stats_at ~vars_after ~constrs_after =
    { vars_before = n + k; vars_after;
      constrs_before = C.rows fp.cols; constrs_after; rounds = fp.rounds;
      substituted = fp.substituted; fixed = fp.fixed }
  in
  match fp.reached with
  | Error (reason, live_rows) ->
    ( Proved_infeasible
        { stats = stats_at ~vars_after:0 ~constrs_after:live_rows; reason },
      fun _ -> None )
  | Ok st ->
    (* replay the definitions into [obj], oldest first; [obj_coeffs] keeps
       each substituted variable's coefficient just before its
       substitution, where the lift starts its reduced cost *)
    let obj_coeffs = Array.make st.steps Rat.zero in
    let const = ref (Linexpr.constant objective) in
    List.iteri
      (fun step (v, e) ->
        let c = obj.(v) in
        obj_coeffs.(step) <- c;
        if not (Rat.is_zero c) then begin
          obj.(v) <- Rat.zero;
          fold (fun w a () -> obj.(w) <- Rat.add obj.(w) (Rat.mul c a)) e ();
          const := Rat.add !const (Rat.mul c e.const)
        end)
      (List.rev st.defs);
    let objective =
      let priced = ref (Linexpr.const !const) in
      let add v c = priced := Linexpr.add !priced (Linexpr.var ~coeff:c v) in
      Array.iteri
        (fun i c -> if not (Rat.is_zero c) then add (C.name fp.cols i) c) obj;
      Array.iter (fun (v, c) -> add v c) only;
      !priced
    in
    let constraints, sources = emit_rows st obj in
    let reduced = Lp_problem.make direction objective constraints in
    (* postsolve's values: the columns', then the objective-only
       variables', which are rare enough to look up by a scan *)
    let slot v =
      match C.find fp.cols v with
      | Some _ as i -> i
      | None ->
        let rec find j =
          if j = k then None
          else if String.equal (fst only.(j)) v then Some (n + j)
          else find (j + 1)
        in
        find 0
    in
    let postsolve assignment =
      let x = Array.make (n + k) Rat.zero in
      (* a variable that vanished from the reduced problem is
         unconstrained there, but its recorded explicit lower bound must
         still hold in the reconstruction *)
      Array.iteri
        (fun v b -> Option.iter (fun b -> x.(v) <- b.value) b) st.lb;
      List.iter
        (fun (v, value) -> Option.iter (fun i -> x.(i) <- value) (slot v))
        assignment;
      List.iter
        (fun (v, e) ->
          x.(v) <-
            fold (fun w a acc -> Rat.add acc (Rat.mul a x.(w))) e e.const)
        st.defs;
      (* columns are name ranks, so merging them with the sorted
         objective-only names lists every variable in name order *)
      let listed lo hi name =
        let l = ref [] in
        for i = hi - 1 downto lo do
          if not (Rat.is_zero x.(i)) then l := (name i, x.(i)) :: !l
        done;
        !l
      in
      List.merge
        (fun (a, _) (b, _) -> String.compare a b)
        (listed 0 n (C.name fp.cols))
        (listed n (n + k) (fun i -> fst only.(i - n)))
    in
    let sources = Array.of_list sources in
    let lift duals =
      if (not st.record) || Array.length duals <> Array.length sources then
        None
      else
        match
          lift_duals st ~obj_coeffs
            ~flip:(direction = Lp_problem.Minimize) ~sources duals
        with
        | lifted -> Some lifted
        | exception Not_lifted -> None
    in
    ( Reduced
        { problem = reduced;
          postsolve;
          stats =
            stats_at
              ~vars_after:(Lp_problem.num_variables reduced)
              ~constrs_after:(List.length constraints) },
      lift )

let run ?integer (problem : Lp_problem.t) =
  fst
    (emit
       (fixpoint ?integer (C.make problem.Lp_problem.constraints))
       problem.Lp_problem.direction problem.Lp_problem.objective)
