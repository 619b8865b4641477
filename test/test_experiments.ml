(* EXPERIMENTS.md quotes the paper reproduction by hand. These tests hold
   its Table 1 and its geomean sentence to test/golden/bench.txt, the
   pinned stdout of bench/main.exe, so that a change to a Table 1 number
   must update both. *)

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let lines path = String.split_on_char '\n' (read path)

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* The lines after the first one starting with [first], up to the first
   one starting with [stop]. *)
let section ~first ~stop ls =
  let rec skip = function
    | [] -> []
    | l :: rest ->
      if String.starts_with ~prefix:first l then take rest else skip rest
  and take = function
    | [] -> []
    | l :: rest ->
      if String.starts_with ~prefix:stop l then [] else l :: take rest
  in
  skip ls

(* One Table 1 row as both files give it: the kernel name, the four
   MHz/slices pairs (paper IP, paper ROCCC, our IP model, our compiled),
   %Area and %Clk for the paper and for us, and the hw=sw verdict. *)
type row = {
  name : string;
  pairs : string list list;
  paper_area : string;
  area : string;
  paper_clk : float;
  clk : float;
  verdict : string;
}

let cells line = String.split_on_char '|' line |> List.map String.trim

(* "bit_correlator  |      212        9 | ... |   0.679     2.11 |
   0.539     1.88 | yes" (one line) *)
let bench_rows () : row list =
  lines "golden/bench.txt"
  |> section ~first:"Table 1 - hardware performance" ~stop:"geomean"
  |> List.filter_map (fun l ->
         match cells l with
         | [ name; pip; proc; mip; ours; paper_ratios; ratios; verdict ]
           when verdict = "yes" || verdict = "no" -> (
           match words paper_ratios, words ratios with
           | [ pclk; parea ], [ clk; area ] ->
             Some
               { name;
                 pairs = List.map words [ pip; proc; mip; ours ];
                 paper_area = parea;
                 area;
                 paper_clk = float_of_string pclk;
                 clk = float_of_string clk;
                 verdict }
           | _ -> Alcotest.failf "bench.txt: bad ratio cells in %S" l)
         | _ -> None)

(* "| bit_correlator | 212 / 9    | ... | 2.11 | 1.88 | 0.68 | 0.54 | yes |";
   names are written as in the paper ("arbitrary LUT", "FIR") *)
let experiments_rows () : row list =
  let pair s = List.filter (fun w -> w <> "/") (words s) in
  lines "../EXPERIMENTS.md"
  |> section ~first:"## Table 1" ~stop:"**Geomeans"
  |> List.filter_map (fun l ->
         match cells l with
         | [ ""; name; pip; proc; mip; ours; parea; area; pclk; clk; verdict; "" ]
           when verdict = "yes" || verdict = "no" ->
           Some
             { name =
                 String.map (fun c -> if c = ' ' then '_' else c)
                   (String.lowercase_ascii name);
               pairs = List.map pair [ pip; proc; mip; ours ];
               paper_area = parea;
               area;
               paper_clk = float_of_string pclk;
               clk = float_of_string clk;
               verdict }
         | _ -> None)

let test_table1_matches_bench () =
  let bench = bench_rows () and doc = experiments_rows () in
  Alcotest.(check int) "nine rows in bench.txt" 9 (List.length bench);
  Alcotest.(check (list string)) "kernels"
    (List.map (fun r -> r.name) bench)
    (List.map (fun r -> r.name) doc);
  List.iter2
    (fun b d ->
      let check what = Alcotest.(check string) (b.name ^ " " ^ what) in
      List.iter2
        (fun what (bp, dp) ->
          check what (String.concat " / " bp) (String.concat " / " dp))
        [ "paper IP"; "paper ROCCC"; "our IP model"; "our compiled" ]
        (List.combine b.pairs d.pairs);
      check "paper %Area" b.paper_area d.paper_area;
      check "our %Area" b.area d.area;
      check "hw=sw" b.verdict d.verdict;
      (* bench.txt prints %Clk to three places, EXPERIMENTS.md to two *)
      let close what x y =
        if Float.abs (x -. y) > 0.005 +. 1e-9 then
          Alcotest.failf "%s %s: EXPERIMENTS.md has %.2f, bench.txt %.3f" b.name
            what y x
      in
      close "paper %Clk" b.paper_clk d.paper_clk;
      close "our %Clk" b.clk d.clk)
    bench doc

(* the decimal numbers of a text, in order *)
let decimals text =
  let re = Str.regexp "[0-9]+\\.[0-9]+" in
  let rec loop pos acc =
    match Str.search_forward re text pos with
    | exception Not_found -> List.rev acc
    | i ->
      let m = Str.matched_string text in
      loop (i + String.length m) (m :: acc)
  in
  loop 0 []

let test_geomeans_match_bench () =
  let bench =
    match
      List.find_opt
        (String.starts_with ~prefix:"geomean (non-LUT rows)")
        (lines "golden/bench.txt")
    with
    | Some l -> decimals l
    | None -> Alcotest.fail "bench.txt has no geomean line"
  in
  (* the paragraph that opens with the bold "Geomeans" *)
  let rec paragraph = function
    | [] -> []
    | l :: rest ->
      if String.starts_with ~prefix:"**Geomeans" l then
        l :: until_blank rest
      else paragraph rest
  and until_blank = function
    | [] -> []
    | l :: rest -> if String.trim l = "" then [] else l :: until_blank rest
  in
  let doc =
    decimals (String.concat " " (paragraph (lines "../EXPERIMENTS.md")))
  in
  Alcotest.(check int) "four geomeans in bench.txt" 4 (List.length bench);
  Alcotest.(check (list string))
    "paper area, our area, paper clock, our clock" bench doc

let suites =
  [ "experiments",
    [ Alcotest.test_case "Table 1 rows match bench.txt" `Quick
        test_table1_matches_bench;
      Alcotest.test_case "geomeans match bench.txt" `Quick
        test_geomeans_match_bench ] ]
