(* Fixpoint presolve over exact rationals.

   Rows are normalized to [expr <= 0] / [expr = 0] (Ge rows are negated on
   intake). Three bound stores drive the reductions: explicit bounds come
   from singleton rows that were folded away (and are re-emitted on output,
   so dropping their rows never loses information), implied bounds come
   from propagation over multi-variable rows (valid consequences, used for
   forcing, fixing and infeasibility detection but never to justify
   dropping a row — that asymmetry is what makes removal safe), and the
   implicit [x >= 0] of every variable.

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
   fixpoint that appended them at once. *)

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

let max_rounds = 20
let max_def_terms = 64

type row = {
  mutable expr : Linexpr.t;
  rel : Lp_problem.relation;  (* Le or Eq; never Ge *)
  origin : string;
  idx : int;  (* intake position, for order-preserving emission *)
  mutable live : bool;
}

type state = {
  integer : bool;
  mutable rows : row list;  (* in original order; killed rows keep their slot *)
  mutable pending : row list;  (* made by this pass's eliminations, newest first *)
  occ : (string, row list) Hashtbl.t;  (* variable -> rows that may mention it *)
  mutable defs : (string * Linexpr.t) list;  (* most recent first *)
  exp_ub : (string, Rat.t * string * int) Hashtbl.t;
  exp_lb : (string, Rat.t * string * int) Hashtbl.t;  (* always > 0 *)
  imp_ub : (string, Rat.t) Hashtbl.t;
  imp_lb : (string, Rat.t) Hashtbl.t;
  mutable changed : bool;
  mutable substituted : int;
  mutable fixed : int;
}

let round_down st b = if st.integer then Rat.of_bigint (Rat.floor b) else b
let round_up st b = if st.integer then Rat.of_bigint (Rat.ceil b) else b

(* --- bounds -------------------------------------------------------------- *)

let eff_lb st v =
  let l =
    match Hashtbl.find_opt st.exp_lb v with
    | Some (x, _, _) -> x
    | None -> Rat.zero
  in
  match Hashtbl.find_opt st.imp_lb v with Some x -> Rat.max l x | None -> l

let eff_ub st v =
  let meet a b = match a with None -> Some b | Some x -> Some (Rat.min x b) in
  let u =
    match Hashtbl.find_opt st.exp_ub v with
    | Some (x, _, _) -> Some x
    | None -> None
  in
  match Hashtbl.find_opt st.imp_ub v with Some x -> meet u x | None -> u

(* bounds safe for redundancy checks: only what the output re-emits *)
let safe_lb st v =
  match Hashtbl.find_opt st.exp_lb v with Some (x, _, _) -> x | None -> Rat.zero

let safe_ub st v =
  match Hashtbl.find_opt st.exp_ub v with Some (x, _, _) -> Some x | None -> None

let term_count e = Linexpr.fold_terms (fun _ _ n -> n + 1) e 0

let integral_expr e =
  Rat.is_integer (Linexpr.constant e)
  && Linexpr.fold_terms (fun _ c ok -> ok && Rat.is_integer c) e true

(* --- substitution -------------------------------------------------------- *)

(* list [r] under each variable of [e] *)
let index st r e =
  Linexpr.fold_terms
    (fun v _ () ->
      let rs = Option.value (Hashtbl.find_opt st.occ v) ~default:[] in
      Hashtbl.replace st.occ v (r :: rs))
    e ()

let subst_expr expr v e =
  let c = Linexpr.coeff expr v in
  if Rat.is_zero c then expr
  else Linexpr.add expr (Linexpr.scale c (Linexpr.sub e (Linexpr.var v)))

(* [v := e] in every live row that mentions [v]; no row mentions [v]
   afterwards, so its index entry goes *)
let substitute st v e =
  st.defs <- (v, e) :: st.defs;
  Hashtbl.remove st.exp_ub v;
  Hashtbl.remove st.exp_lb v;
  Hashtbl.remove st.imp_ub v;
  Hashtbl.remove st.imp_lb v;
  (match Hashtbl.find_opt st.occ v with
   | None -> ()
   | Some rs ->
     Hashtbl.remove st.occ v;
     let step = Linexpr.sub e (Linexpr.var v) in
     List.iter
       (fun r ->
         if r.live then begin
           let c = Linexpr.coeff r.expr v in
           if not (Rat.is_zero c) then begin
             r.expr <- Linexpr.add r.expr (Linexpr.scale c step);
             index st r e
           end
         end)
       rs);
  st.changed <- true

let fix st v value ~why =
  if st.integer && not (Rat.is_integer value) then
    raise
      (Infeasible
         (Printf.sprintf "%s fixes %s to the fractional value %s" why v
            (Rat.to_string value)));
  if Rat.sign value < 0 then
    raise (Infeasible (Printf.sprintf "%s fixes %s to a negative value" why v));
  if Rat.compare value (eff_lb st v) < 0 then
    raise (Infeasible (Printf.sprintf "%s fixes %s below its lower bound" why v));
  (match eff_ub st v with
   | Some u when Rat.compare value u > 0 ->
     raise (Infeasible (Printf.sprintf "%s fixes %s above its upper bound" why v))
   | Some _ | None -> ());
  substitute st v (Linexpr.const value);
  st.fixed <- st.fixed + 1

(* after a bound update: detect conflicts and pinch-fixed variables *)
let check_bounds st v ~why =
  match eff_ub st v with
  | None -> ()
  | Some u ->
    let l = eff_lb st v in
    let c = Rat.compare u l in
    if c < 0 then
      raise
        (Infeasible (Printf.sprintf "%s leaves %s with an empty range" why v))
    else if c = 0 then fix st v l ~why

let tighten_exp_ub st v b ~origin ~idx =
  let b = round_down st b in
  (match Hashtbl.find_opt st.exp_ub v with
   | Some (cur, _, _) when Rat.compare cur b <= 0 -> ()
   | Some _ | None ->
     Hashtbl.replace st.exp_ub v (b, origin, idx);
     st.changed <- true);
  check_bounds st v ~why:origin

let tighten_exp_lb st v b ~origin ~idx =
  let b = round_up st b in
  if Rat.sign b > 0 then begin
    (match Hashtbl.find_opt st.exp_lb v with
     | Some (cur, _, _) when Rat.compare cur b >= 0 -> ()
     | Some _ | None ->
       Hashtbl.replace st.exp_lb v (b, origin, idx);
       st.changed <- true);
    check_bounds st v ~why:origin
  end

let tighten_imp_ub st v b ~why =
  let b = round_down st b in
  let improves = match eff_ub st v with
    | None -> true
    | Some cur -> Rat.compare b cur < 0
  in
  if improves then begin
    Hashtbl.replace st.imp_ub v b;
    st.changed <- true;
    check_bounds st v ~why
  end

let tighten_imp_lb st v b ~why =
  let b = round_up st b in
  if Rat.compare b (eff_lb st v) > 0 then begin
    Hashtbl.replace st.imp_lb v b;
    st.changed <- true;
    check_bounds st v ~why
  end

(* --- activities ---------------------------------------------------------- *)

(* min/max of [expr] over the box given by the bound accessors; [None] is
   the corresponding infinity *)
let min_activity lbf ubf expr =
  Linexpr.fold_terms
    (fun v c acc ->
      match acc with
      | None -> None
      | Some s ->
        if Rat.sign c > 0 then Some (Rat.add s (Rat.mul c (lbf v)))
        else (
          match ubf v with
          | None -> None
          | Some u -> Some (Rat.add s (Rat.mul c u))))
    expr
    (Some (Linexpr.constant expr))

let max_activity lbf ubf expr =
  Linexpr.fold_terms
    (fun v c acc ->
      match acc with
      | None -> None
      | Some s ->
        if Rat.sign c < 0 then Some (Rat.add s (Rat.mul c (lbf v)))
        else (
          match ubf v with
          | None -> None
          | Some u -> Some (Rat.add s (Rat.mul c u))))
    expr
    (Some (Linexpr.constant expr))

(* --- row processing ------------------------------------------------------ *)

let kill st r =
  r.live <- false;
  st.changed <- true

(* [expr <= 0] forces every variable to its min-side bound *)
let force_min st r =
  let pins =
    Linexpr.fold_terms
      (fun v c acc ->
        let value =
          if Rat.sign c > 0 then eff_lb st v
          else match eff_ub st v with Some u -> u | None -> assert false
        in
        (v, value) :: acc)
      r.expr []
  in
  kill st r;
  List.iter (fun (v, value) -> fix st v value ~why:("forcing row " ^ r.origin)) pins

let force_max st r =
  let pins =
    Linexpr.fold_terms
      (fun v c acc ->
        let value =
          if Rat.sign c < 0 then eff_lb st v
          else match eff_ub st v with Some u -> u | None -> assert false
        in
        (v, value) :: acc)
      r.expr []
  in
  kill st r;
  List.iter (fun (v, value) -> fix st v value ~why:("forcing row " ^ r.origin)) pins

(* propagate one direction of [expr <= 0] into implied bounds *)
let propagate_le st origin expr =
  let inf = ref 0 and sum_fin = ref (Linexpr.constant expr) in
  Linexpr.fold_terms
    (fun v c () ->
      if Rat.sign c > 0 then sum_fin := Rat.add !sum_fin (Rat.mul c (eff_lb st v))
      else
        match eff_ub st v with
        | Some u -> sum_fin := Rat.add !sum_fin (Rat.mul c u)
        | None -> incr inf)
    expr ();
  Linexpr.fold_terms
    (fun v c () ->
      let contrib =
        if Rat.sign c > 0 then Some (Rat.mul c (eff_lb st v))
        else
          match eff_ub st v with
          | Some u -> Some (Rat.mul c u)
          | None -> None
      in
      let residual =
        match contrib with
        | Some m when !inf = 0 -> Some (Rat.sub !sum_fin m)
        | None when !inf = 1 -> Some !sum_fin
        | Some _ | None -> None
      in
      match residual with
      | None -> ()
      | Some s ->
        let bound = Rat.div (Rat.neg s) c in
        let why = "propagation from " ^ origin in
        if Rat.sign c > 0 then tighten_imp_ub st v bound ~why
        else tighten_imp_lb st v bound ~why)
    expr ()

let process_le st r =
  (match min_activity (eff_lb st) (eff_ub st) r.expr with
   | Some m when Rat.sign m > 0 ->
     raise (Infeasible ("row cannot be satisfied: " ^ r.origin))
   | Some m when Rat.is_zero m -> force_min st r
   | Some _ | None -> ());
  if r.live then begin
    (match max_activity (safe_lb st) (safe_ub st) r.expr with
     | Some m when Rat.sign m <= 0 -> kill st r  (* implied by emitted bounds *)
     | Some _ | None -> ());
    if r.live then propagate_le st r.origin r.expr
  end

let process_eq st r =
  (match min_activity (eff_lb st) (eff_ub st) r.expr with
   | Some m when Rat.sign m > 0 ->
     raise (Infeasible ("row cannot be satisfied: " ^ r.origin))
   | Some m when Rat.is_zero m -> force_min st r
   | Some _ | None -> ());
  if r.live then begin
    match max_activity (eff_lb st) (eff_ub st) r.expr with
    | Some m when Rat.sign m < 0 ->
      raise (Infeasible ("row cannot be satisfied: " ^ r.origin))
    | Some m when Rat.is_zero m -> force_max st r
    | Some _ | None ->
      propagate_le st r.origin r.expr;
      propagate_le st r.origin (Linexpr.neg r.expr)
  end

let process_row st r =
  if r.live then begin
    if Linexpr.is_const r.expr then begin
      let c = Linexpr.constant r.expr in
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
    else
      match Linexpr.vars r.expr with
      | [ v ] ->
        (* singleton: fold into the bound tables *)
        let a = Linexpr.coeff r.expr v in
        let b = Rat.div (Rat.neg (Linexpr.constant r.expr)) a in
        kill st r;
        (match r.rel with
         | Lp_problem.Eq -> fix st v b ~why:("row " ^ r.origin)
         | Lp_problem.Le ->
           if Rat.sign a > 0 then tighten_exp_ub st v b ~origin:r.origin ~idx:r.idx
           else tighten_exp_lb st v b ~origin:r.origin ~idx:r.idx
         | Lp_problem.Ge -> assert false)
      | _ ->
        (match r.rel with
         | Lp_problem.Le -> process_le st r
         | Lp_problem.Eq -> process_eq st r
         | Lp_problem.Ge -> assert false)
  end

(* --- variable elimination ------------------------------------------------ *)

(* the definition of [v] from equality row [expr = 0] *)
let definition_of expr v =
  let a = Linexpr.coeff expr v in
  Linexpr.scale
    (Rat.div Rat.minus_one a)
    (Linexpr.sub expr (Linexpr.var ~coeff:a v))

let try_eliminate st r =
  if r.live && r.rel = Lp_problem.Eq && term_count r.expr >= 2 then begin
    let candidates =
      Linexpr.fold_terms
        (fun v _ acc ->
          let e = definition_of r.expr v in
          if term_count e <= max_def_terms
             && ((not st.integer) || integral_expr e)
          then (v, e) :: acc
          else acc)
        r.expr []
      |> List.rev
    in
    (* [e >= 0] must be justified by bounds the output preserves (emitted
       explicit-bound rows, or postsolve defaults for vanished variables) —
       implied bounds may circularly depend on [v >= 0] itself *)
    let nonneg (_, e) =
      match min_activity (safe_lb st) (safe_ub st) e with
      | Some m -> Rat.sign m >= 0
      | None -> false
    in
    let choice =
      match List.find_opt nonneg candidates with
      | Some c -> Some (c, false)
      | None ->
        (match candidates with c :: _ -> Some (c, true) | [] -> None)
    in
    match choice with
    | None -> ()
    | Some ((v, e), needs_guard) ->
      kill st r;
      (* the eliminated variable's constraints move onto its definition *)
      let add expr ~origin ~idx =
        let row = { expr; rel = Lp_problem.Le; origin; idx; live = true } in
        index st row expr;
        st.pending <- row :: st.pending
      in
      (match Hashtbl.find_opt st.exp_lb v with
       | Some (l, origin, idx) ->
         add (Linexpr.sub (Linexpr.const l) e) ~origin ~idx
       | None -> ());
      (match Hashtbl.find_opt st.exp_ub v with
       | Some (u, origin, idx) ->
         add (Linexpr.sub e (Linexpr.const u)) ~origin ~idx
       | None -> ());
      if needs_guard then add (Linexpr.neg e) ~origin:r.origin ~idx:r.idx;
      substitute st v e;
      st.substituted <- st.substituted + 1
  end

(* --- driver -------------------------------------------------------------- *)

module Row_key = Hashtbl.Make (struct
  type t = Lp_problem.relation * Linexpr.t
  let equal (r1, e1) (r2, e2) = r1 = r2 && Linexpr.equal e1 e2
  let hash (rel, e) = (Hashtbl.hash rel * 31) + Linexpr.hash e
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

let intake idx (c : Lp_problem.constr) =
  match c.Lp_problem.rel with
  | Lp_problem.Le ->
    { expr = c.Lp_problem.expr; rel = Lp_problem.Le;
      origin = c.Lp_problem.origin; idx; live = true }
  | Lp_problem.Ge ->
    { expr = Linexpr.neg c.Lp_problem.expr; rel = Lp_problem.Le;
      origin = c.Lp_problem.origin; idx; live = true }
  | Lp_problem.Eq ->
    { expr = c.Lp_problem.expr; rel = Lp_problem.Eq;
      origin = c.Lp_problem.origin; idx; live = true }

(* Emission preserves the original constraint order: every output row —
   including a re-emitted bound — is placed at the intake position of the
   row it descends from. Keeping the reduced problem a subsequence of the
   original (same variable order, same row order) keeps the simplex
   pivoting deterministic in the same way with and without presolve, which
   is what lets an alternate-optima witness agree between the two paths. *)
let emit_rows st objective =
  let rows =
    List.filter_map
      (fun r -> if r.live then Some (r.idx, r.expr, r.rel, r.origin) else None)
      st.rows
  in
  (* re-emit the explicit bounds of the variables that survived *)
  let live = Hashtbl.create 64 in
  let note e = Linexpr.fold_terms (fun v _ () -> Hashtbl.replace live v ()) e () in
  List.iter (fun (_, e, _, _) -> note e) rows;
  note objective;
  let bound_rows = ref [] in
  Hashtbl.iter
    (fun v (u, origin, idx) ->
      if Hashtbl.mem live v then
        bound_rows :=
          (idx, Linexpr.sub (Linexpr.var v) (Linexpr.const u), Lp_problem.Le,
           origin)
          :: !bound_rows)
    st.exp_ub;
  Hashtbl.iter
    (fun v (l, origin, idx) ->
      if Hashtbl.mem live v then
        bound_rows :=
          (idx, Linexpr.sub (Linexpr.const l) (Linexpr.var v), Lp_problem.Le,
           origin)
          :: !bound_rows)
    st.exp_lb;
  List.sort
    (fun (i, e1, _, _) (j, e2, _, _) ->
      match compare i j with
      | 0 -> compare (Linexpr.to_string e1) (Linexpr.to_string e2)
      | c -> c)
    (rows @ !bound_rows)
  |> List.map (fun (_, expr, rel, origin) -> Lp_problem.constr ~origin expr rel)

let add_vars e acc =
  Linexpr.fold_terms (fun v _ acc -> Lp_problem.Names.add v acc) e acc

type fixpoint = {
  vars : Lp_problem.Names.t;  (* of the constraints *)
  constrs_before : int;
  rounds : int;
  substituted : int;
  fixed : int;
  reached : (state * (string * Linexpr.t) list, string * int) result;
      (* the final state with its definitions oldest first, or why the
         constraints are infeasible and how many rows were live then *)
}

let fixpoint ?(integer = true) constraints =
  let st =
    { integer;
      rows = List.mapi intake constraints;
      pending = [];
      occ = Hashtbl.create 64;
      defs = [];
      exp_ub = Hashtbl.create 64;
      exp_lb = Hashtbl.create 64;
      imp_ub = Hashtbl.create 64;
      imp_lb = Hashtbl.create 64;
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
    | () -> Ok (st, List.rev st.defs)
    | exception Infeasible reason ->
      Error (reason, List.length (List.filter (fun r -> r.live) st.rows))
  in
  (* [emit] reads the rows, bounds and definitions, never the index *)
  Hashtbl.reset st.occ;
  { vars =
      List.fold_left
        (fun acc (c : Lp_problem.constr) -> add_vars c.Lp_problem.expr acc)
        Lp_problem.Names.empty constraints;
    constrs_before = List.length constraints;
    rounds = !rounds;
    substituted = st.substituted;
    fixed = st.fixed;
    reached }

let emit fp direction objective =
  let vars = add_vars objective fp.vars in
  let stats_at ~vars_after ~constrs_after =
    { vars_before = Lp_problem.Names.cardinal vars; vars_after;
      constrs_before = fp.constrs_before; constrs_after; rounds = fp.rounds;
      substituted = fp.substituted; fixed = fp.fixed }
  in
  match fp.reached with
  | Error (reason, live_rows) ->
    Proved_infeasible
      { stats = stats_at ~vars_after:0 ~constrs_after:live_rows; reason }
  | Ok (st, replay) ->
    let objective =
      List.fold_left (fun o (v, e) -> subst_expr o v e) objective replay
    in
    let constraints = emit_rows st objective in
    let reduced = Lp_problem.make direction objective constraints in
    let original_vars = Lp_problem.Names.elements vars in
    let defs = st.defs in
    (* a variable that vanished from the reduced problem is unconstrained
       there, but its recorded explicit lower bound must still hold in the
       reconstruction *)
    let lb_defaults =
      Hashtbl.fold (fun v (l, _, _) acc -> (v, l) :: acc) st.exp_lb []
    in
    let postsolve assignment =
      let env = Hashtbl.create 64 in
      List.iter (fun (v, l) -> Hashtbl.replace env v l) lb_defaults;
      List.iter (fun (v, x) -> Hashtbl.replace env v x) assignment;
      let get v =
        match Hashtbl.find_opt env v with Some x -> x | None -> Rat.zero
      in
      List.iter (fun (v, e) -> Hashtbl.replace env v (Linexpr.eval get e)) defs;
      List.filter_map
        (fun v ->
          let x = get v in
          if Rat.is_zero x then None else Some (v, x))
        original_vars
    in
    Reduced
      { problem = reduced;
        postsolve;
        stats =
          stats_at
            ~vars_after:(Lp_problem.num_variables reduced)
            ~constrs_after:(List.length constraints) }

let run ?integer (problem : Lp_problem.t) =
  emit
    (fixpoint ?integer problem.Lp_problem.constraints)
    problem.Lp_problem.direction problem.Lp_problem.objective
