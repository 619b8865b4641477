(** Control-flow graph library over VM procedures — the Machine-SUIF CFG
    library equivalent (paper references [14]): successor/predecessor maps,
    reverse postorder, dominators and dominance frontiers. *)

module Proc = Roccc_vm.Proc

type t = {
  proc : Proc.t;
  succ : (Proc.label, Proc.label list) Hashtbl.t;
  pred : (Proc.label, Proc.label list) Hashtbl.t;
  rpo : Proc.label array;                 (* reverse postorder from entry *)
  rpo_index : (Proc.label, int) Hashtbl.t;
  idom : (Proc.label, Proc.label) Hashtbl.t;  (* immediate dominators *)
}

let successors (g : t) (l : Proc.label) : Proc.label list =
  Option.value (Hashtbl.find_opt g.succ l) ~default:[]

let predecessors (g : t) (l : Proc.label) : Proc.label list =
  Option.value (Hashtbl.find_opt g.pred l) ~default:[]

let entry_label (g : t) : Proc.label = (Proc.entry g.proc).Proc.label

(* Depth-first postorder from the entry. Unreachable blocks are excluded. *)
let compute_rpo (proc : Proc.t) : Proc.label array =
  let visited = Hashtbl.create 16 in
  let post = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      List.iter dfs (Proc.successors (Proc.find_block proc l));
      post := l :: !post
    end
  in
  dfs (Proc.entry proc).Proc.label;
  Array.of_list !post

(* Cooper-Harvey-Kennedy iterative dominator algorithm. *)
let compute_idom (rpo : Proc.label array)
    (pred : (Proc.label, Proc.label list) Hashtbl.t) :
    (Proc.label, Proc.label) Hashtbl.t =
  let n = Array.length rpo in
  let index = Hashtbl.create n in
  Array.iteri (fun i l -> Hashtbl.replace index l i) rpo;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while !a > !b do a := idom.(!a) done;
      while !b > !a do b := idom.(!b) done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let preds =
        List.filter_map
          (fun p -> Hashtbl.find_opt index p)
          (Option.value (Hashtbl.find_opt pred rpo.(i)) ~default:[])
      in
      let processed = List.filter (fun p -> idom.(p) >= 0) preds in
      match processed with
      | [] -> ()
      | first :: rest ->
        let new_idom = List.fold_left intersect first rest in
        if idom.(i) <> new_idom then begin
          idom.(i) <- new_idom;
          changed := true
        end
    done
  done;
  let table = Hashtbl.create n in
  Array.iteri
    (fun i l -> if idom.(i) >= 0 then Hashtbl.replace table l rpo.(idom.(i)))
    rpo;
  table

let build (proc : Proc.t) : t =
  let succ = Hashtbl.create 16 and pred = Hashtbl.create 16 in
  List.iter
    (fun (b : Proc.block) ->
      let ss = Proc.successors b in
      Hashtbl.replace succ b.Proc.label ss;
      List.iter
        (fun s ->
          let cur = Option.value (Hashtbl.find_opt pred s) ~default:[] in
          Hashtbl.replace pred s (cur @ [ b.Proc.label ]))
        ss)
    proc.Proc.blocks;
  let rpo = compute_rpo proc in
  let rpo_index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace rpo_index l i) rpo;
  let idom = compute_idom rpo pred in
  { proc; succ; pred; rpo; rpo_index; idom }

let immediate_dominator (g : t) (l : Proc.label) : Proc.label option =
  match Hashtbl.find_opt g.idom l with
  | Some d when d <> l -> Some d
  | Some _ | None -> None

(** Does [a] dominate [b]? (Reflexive.) *)
let dominates (g : t) (a : Proc.label) (b : Proc.label) : bool =
  let rec walk b =
    if a = b then true
    else
      match immediate_dominator g b with
      | Some d -> walk d
      | None -> false
  in
  walk b

(** Dominance frontier of every node (Cytron et al. via idom walk-up).
    Every insertion of [l] happens while [l] is visited, so one stamp per
    node ([l]'s index once [l] has joined its frontier) dedups in O(1);
    members accumulate in a reversed list, materialized once, so discovery
    order is preserved. *)
let dominance_frontiers (g : t) : (Proc.label, Proc.label list) Hashtbl.t =
  let n = Array.length g.rpo in
  let stamp = Array.make n (-1) in
  let rev_df = Array.make n [] in
  Array.iteri
    (fun li l ->
      let preds = predecessors g l in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            (* Only predecessors reachable from entry participate. *)
            match Hashtbl.find_opt g.rpo_index p with
            | None -> ()
            | Some pi ->
              let idom_l = Hashtbl.find_opt g.idom l in
              let rec runner r ri =
                if Some r <> idom_l then begin
                  if stamp.(ri) <> li then begin
                    stamp.(ri) <- li;
                    rev_df.(ri) <- l :: rev_df.(ri)
                  end;
                  match Hashtbl.find_opt g.idom r with
                  | Some d when d <> r -> runner d (Hashtbl.find g.rpo_index d)
                  | Some _ | None -> ()
                end
              in
              runner p pi)
          preds)
    g.rpo;
  let df = Hashtbl.create 16 in
  Array.iteri (fun ri r -> Hashtbl.replace df r (List.rev rev_df.(ri))) g.rpo;
  df
