type labels = (string * string) list

type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Quantiles come from a fixed geometric bucket array: 16 buckets per
   octave (each ~4.4% wide) covering 2^-30 .. 2^30, which spans sub-
   microsecond latencies in seconds up to cycle counts in the billions.
   An observation costs one array increment; a quantile read walks the
   array once. Out-of-range and non-positive samples land in the edge
   buckets — min/max still record them exactly, and quantile results are
   clamped to [min, max] so small samples stay sharp. *)
let nbuckets = 961
let buckets_per_octave = 16.0
let bucket_zero = 480 (* index of the bucket containing 1.0 *)

let bucket_of x =
  if x <= 0.0 || not (Float.is_finite x) then 0
  else begin
    let octaves = Float.log x /. Float.log 2.0 in
    let i = bucket_zero + int_of_float (Float.floor (octaves *. buckets_per_octave)) in
    if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i
  end

let bucket_mid i =
  Float.pow 2.0 ((float_of_int (i - bucket_zero) +. 0.5) /. buckets_per_octave)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type histogram = hist

type cell = C of counter | G of gauge | H of hist

type t = { table : (string * labels, cell) Hashtbl.t }

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : float; min : float; max : float }

let create () = { table = Hashtbl.create 64 }

let reset t = Hashtbl.reset t.table

let key name labels =
  (name, List.sort (fun (a, _) (b, _) -> compare a b) labels)

let find_or_add t name labels ~make ~cast =
  let k = key name labels in
  match Hashtbl.find_opt t.table k with
  | Some cell -> cast cell
  | None ->
    let fresh = make () in
    Hashtbl.add t.table k fresh;
    cast fresh

let counter t ?(labels = []) name =
  find_or_add t name labels
    ~make:(fun () -> C { c = 0 })
    ~cast:(function
      | C c -> c
      | G _ | H _ -> invalid_arg (name ^ ": registered with another kind"))

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c

let gauge t labels name =
  find_or_add t name labels
    ~make:(fun () -> G { g = 0.0 })
    ~cast:(function
      | G g -> g
      | C _ | H _ -> invalid_arg (name ^ ": registered with another kind"))

let set_gauge t ?(labels = []) name v = (gauge t labels name).g <- v
let set_gauge_int t ?labels name v = set_gauge t ?labels name (float_of_int v)

let histogram t ?(labels = []) name =
  find_or_add t name labels
    ~make:(fun () ->
      H { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
          h_buckets = Array.make nbuckets 0 })
    ~cast:(function
      | H h -> h
      | C _ | G _ -> invalid_arg (name ^ ": registered with another kind"))

let observe h x =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. x;
  if x < h.h_min then h.h_min <- x;
  if x > h.h_max then h.h_max <- x;
  let b = bucket_of x in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

(* rank = ceil(q * count), the same convention as sorting the samples and
   taking the rank-th one (1-based); the answer is the midpoint of the
   bucket holding that rank, clamped to the exact observed extremes *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let idx = ref (nbuckets - 1) in
    let cum = ref 0 in
    (try
       for i = 0 to nbuckets - 1 do
         cum := !cum + h.h_buckets.(i);
         if !cum >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.max h.h_min (Float.min h.h_max (bucket_mid !idx))
  end

let items t =
  Hashtbl.fold
    (fun (name, labels) cell acc ->
      let value =
        match cell with
        | C c -> Counter c.c
        | G g -> Gauge g.g
        | H h ->
          Histogram
            { count = h.h_count;
              sum = h.h_sum;
              min = (if h.h_count = 0 then 0.0 else h.h_min);
              max = (if h.h_count = 0 then 0.0 else h.h_max) }
      in
      (name, labels, value) :: acc)
    t.table []
  |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))
