(* Difference-constraint linear programs solved through their min-cost-flow
   dual.

   Primal: minimise sum_v weight.(v) * x.(v) subject to
   x.(head.(k)) - x.(tail.(k)) >= lower.(k) for every arc k. Every row of
   the constraint matrix is a difference, so the matrix is totally
   unimodular and the dual is an uncapacitated min-cost flow: arc k carries
   flow f_k >= 0 at cost -lower.(k), and node v must receive a net inflow
   of weight.(v) (negative weights are supplies, positive ones demands).

   The flow is solved by the primal network simplex method over strongly
   feasible spanning trees (the artificial start, the initial pivots and
   the leaving-arc tie rule follow LEMON's implementation; pricing takes
   the first eligible arc, which beats block search on these small
   networks). Node
   potentials pi keep every tree arc at reduced cost
   cost + pi.(tail) - pi.(head) = 0; the method stops when no arc has a
   negative reduced cost. Then x = -pi is an optimal primal point by
   complementary slackness: every arc with flow is a tight constraint, and
   a non-negative reduced cost on every arc is exactly primal feasibility.

   The tree is kept as parent pointers, depths and doubly linked child
   lists. Every array is sized once per solve; the pivots allocate
   nothing. *)

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type result = {
  x : int array;   (** optimal values, in the caller's variable order *)
  objective : int; (** sum_v weight.(v) * x.(v) at the optimum *)
}

let solve ~(weight : int array) ~(tail : int array) ~(head : int array)
    ~(lower : int array) : result =
  let n = Array.length weight in
  let m = Array.length tail in
  if Array.length head <> m || Array.length lower <> m then
    errf "flow: %d tails, %d heads, %d lower bounds" m (Array.length head)
      (Array.length lower);
  if Array.fold_left ( + ) 0 weight <> 0 then
    errf "flow: weights do not sum to zero (the program is unbounded)";
  (* ---- arcs: the m constraint arcs, then one artificial arc per node ---- *)
  let root = n in
  let na = m + n in
  let src = Array.make na 0 and dst = Array.make na 0 in
  let cost = Array.make na 0 and flow = Array.make na 0 in
  let in_tree = Array.make na false in
  let max_cost = ref 0 in
  for k = 0 to m - 1 do
    src.(k) <- tail.(k);
    dst.(k) <- head.(k);
    cost.(k) <- -lower.(k);
    max_cost := max !max_cost (abs lower.(k))
  done;
  (* a unit routed through the root costs more than any simple path *)
  let art_cost = (!max_cost + 1) * (n + 1) in
  (* ---- the tree: every node hangs off the root by its artificial arc;
     supplies (and zero-weight nodes) point up at cost 0, demands are fed
     down at the artificial cost ---- *)
  let parent = Array.make (n + 1) (-1) in
  let pred = Array.make (n + 1) (-1) in
  let up = Array.make (n + 1) false in  (* pred arc runs child -> parent *)
  let depth = Array.make (n + 1) 0 in
  let pi = Array.make (n + 1) 0 in
  let first_child = Array.make (n + 1) (-1) in
  let next_sib = Array.make (n + 1) (-1) in
  let prev_sib = Array.make (n + 1) (-1) in
  let link u p =
    parent.(u) <- p;
    prev_sib.(u) <- -1;
    next_sib.(u) <- first_child.(p);
    if first_child.(p) >= 0 then prev_sib.(first_child.(p)) <- u;
    first_child.(p) <- u
  in
  let unlink u =
    let p = parent.(u) in
    if prev_sib.(u) >= 0 then next_sib.(prev_sib.(u)) <- next_sib.(u)
    else first_child.(p) <- next_sib.(u);
    if next_sib.(u) >= 0 then prev_sib.(next_sib.(u)) <- prev_sib.(u)
  in
  for v = n - 1 downto 0 do
    let e = m + v in
    let supply = -weight.(v) in
    if supply >= 0 then begin
      src.(e) <- v;
      dst.(e) <- root;
      flow.(e) <- supply;
      up.(v) <- true
    end
    else begin
      src.(e) <- root;
      dst.(e) <- v;
      cost.(e) <- art_cost;
      flow.(e) <- -supply;
      pi.(v) <- art_cost
    end;
    in_tree.(e) <- true;
    pred.(v) <- e;
    depth.(v) <- 1;
    link v root
  done;
  let reduced e = cost.(e) + pi.(src.(e)) - pi.(dst.(e)) in
  (* ---- pricing: the first arc with a negative reduced cost, scanning
     on from where the last search stopped; -1 when there is none ---- *)
  let next_arc = ref 0 in
  let entering () =
    let found = ref (-1) and scanned = ref 0 and k = ref !next_arc in
    while !found < 0 && !scanned < m do
      let e = !k in
      if (not in_tree.(e)) && cost.(e) + pi.(src.(e)) - pi.(dst.(e)) < 0 then
        found := e;
      incr scanned;
      k := if e + 1 = m then 0 else e + 1
    done;
    next_arc := !k;
    !found
  in
  (* ---- one pivot on entering arc [e_in] ---- *)
  let stack = Array.make (n + 1) 0 in
  let pivot e_in =
    let first = src.(e_in) and second = dst.(e_in) in
    let join =
      let u = ref first and v = ref second in
      while !u <> !v do
        if depth.(!u) > depth.(!v) then u := parent.(!u)
        else if depth.(!v) > depth.(!u) then v := parent.(!v)
        else begin
          u := parent.(!u);
          v := parent.(!v)
        end
      done;
      !u
    in
    (* leaving arc: only arcs whose flow falls as the cycle turns along
       the entering arc can block; take the first such minimum from
       [first] up to the join, else the last one from [second] up to the
       join (the tie rule that keeps the tree strongly feasible) *)
    let delta = ref max_int and u_out = ref (-1) and side = ref 0 in
    let u = ref first in
    while !u <> join do
      if up.(!u) && flow.(pred.(!u)) < !delta then begin
        delta := flow.(pred.(!u));
        u_out := !u;
        side := 1
      end;
      u := parent.(!u)
    done;
    u := second;
    while !u <> join do
      if (not up.(!u)) && flow.(pred.(!u)) <= !delta then begin
        delta := flow.(pred.(!u));
        u_out := !u;
        side := 2
      end;
      u := parent.(!u)
    done;
    if !side = 0 then
      errf "flow: a negative cycle (the program is infeasible)";
    let d = !delta in
    if d > 0 then begin
      flow.(e_in) <- flow.(e_in) + d;
      let u = ref first in
      while !u <> join do
        let e = pred.(!u) in
        flow.(e) <- (if up.(!u) then flow.(e) - d else flow.(e) + d);
        u := parent.(!u)
      done;
      u := second;
      while !u <> join do
        let e = pred.(!u) in
        flow.(e) <- (if up.(!u) then flow.(e) + d else flow.(e) - d);
        u := parent.(!u)
      done
    end;
    (* re-hang the cut-off subtree: reverse the stem from u_in up to
       u_out and hang u_in off v_in by the entering arc *)
    let u_in, v_in = if !side = 1 then first, second else second, first in
    let sigma = if u_in = first then -reduced e_in else reduced e_in in
    in_tree.(pred.(!u_out)) <- false;
    in_tree.(e_in) <- true;
    let cur = ref u_in and above = ref v_in and arc = ref e_in in
    let stem = ref true in
    while !stem do
      let w = !cur in
      let old_parent = parent.(w) and old_pred = pred.(w) in
      unlink w;
      link w !above;
      pred.(w) <- !arc;
      up.(w) <- src.(!arc) = w;
      if w = !u_out then stem := false
      else begin
        above := w;
        arc := old_pred;
        cur := old_parent
      end
    done;
    (* potentials and depths of the re-hung subtree *)
    stack.(0) <- u_in;
    let top = ref 1 in
    while !top > 0 do
      decr top;
      let w = stack.(!top) in
      pi.(w) <- pi.(w) + sigma;
      depth.(w) <- depth.(parent.(w)) + 1;
      let c = ref first_child.(w) in
      while !c >= 0 do
        stack.(!top) <- !c;
        incr top;
        c := next_sib.(!c)
      done
    done
  in
  (* crash start: pivot in each demand node's cheapest incoming arc first
     (LEMON's initial pivots), then price as usual *)
  let cheapest = Array.make n (-1) in
  for k = 0 to m - 1 do
    let v = dst.(k) in
    if weight.(v) > 0 && (cheapest.(v) < 0 || cost.(k) < cost.(cheapest.(v)))
    then cheapest.(v) <- k
  done;
  Array.iter
    (fun k ->
      if k >= 0 && (not in_tree.(k)) && reduced k < 0 then pivot k)
    cheapest;
  let e = ref (entering ()) in
  while !e >= 0 do
    pivot !e;
    e := entering ()
  done;
  (* ---- recovery: x = -pi; strong duality checks the arithmetic ---- *)
  for v = 0 to n - 1 do
    if flow.(m + v) <> 0 then
      errf "flow: node %d keeps %d unit(s) on its artificial arc" v
        flow.(m + v)
  done;
  let x = Array.init n (fun v -> -pi.(v)) in
  let objective = ref 0 in
  Array.iteri (fun v w -> objective := !objective + (w * x.(v))) weight;
  let dual = ref 0 in
  for k = 0 to m - 1 do
    dual := !dual + (lower.(k) * flow.(k));
    if x.(head.(k)) - x.(tail.(k)) < lower.(k) then
      errf "flow: recovered point violates x%d - x%d >= %d" head.(k)
        tail.(k) lower.(k)
  done;
  if !dual <> !objective then
    errf "flow: primal objective %d but dual %d" !objective !dual;
  { x; objective = !objective }
