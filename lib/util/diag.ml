type t = { where : string; pos : (int * int) option; msg : string }

exception Error of t

let failf ?pos where fmt =
  Printf.ksprintf (fun msg -> raise (Error { where; pos; msg })) fmt

let to_string d =
  match d.pos with
  | None -> Printf.sprintf "%s: %s" d.where d.msg
  | Some (line, col) -> Printf.sprintf "%s at %d:%d: %s" d.where line col d.msg
