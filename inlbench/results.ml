(* Result files, their shared header, order statistics, and
   [inlbench compare]. *)

module J = Inl_serve.Json

let schema = "inlbench-v1"

(* ---- order statistics ---- *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the spreads printed here are the ones a reader gets from
   the standard library. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else 0. in
    (v, v)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Percentile [p] (0..100) of a request-latency sample, by linear
   interpolation between closest ranks. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let h = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* interquartile distance as a share of the median (end-to-end metrics
   are never 0) *)
let spread xs =
  let m = median xs in
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs m

(* ---- the header every result file carries ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit the benchmark was built from: [.git/HEAD], following one
   symbolic ref (loose or packed); "unknown" outside a git checkout. *)
let commit () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match trim (read_file (Filename.concat ".git" r)) with
      | h -> h
      | exception Sys_error _ -> (
          match read_file ".git/packed-refs" with
          | exception Sys_error _ -> "unknown"
          | packed -> (
              let suffix = " " ^ r in
              match
                List.find_opt
                  (fun l -> String.ends_with ~suffix l)
                  (String.split_on_char '\n' packed)
              with
              | Some l -> String.sub l 0 (String.index l ' ')
              | None -> "unknown")))
  | head -> head

let header ~workload ~seed ~trace ~jobs =
  [
    ("schema", J.String schema);
    ("cores", J.Int (Domain.recommended_domain_count ()));
    ("jobs", J.Int jobs);
    ("seed", J.Int seed);
    ("ocaml", J.String Sys.ocaml_version);
    ("commit", J.String (commit ()));
    ("workload", J.String workload);
    ("trace", J.Bool trace);
  ]

type metric = { name : string; unit_ : string; value : float }

let metrics_json ms =
  J.Obj
    (List.map
       (fun m ->
         let v = if Float.is_finite m.value then m.value else 0. in
         (m.name, J.Obj [ ("value", J.Float v); ("unit", J.String m.unit_) ]))
       ms)

(* ---- compare ---- *)

type spec = { s_name : string; s_unit : string; higher : bool; bound : float option }

let load_spec path =
  let doc =
    match J.parse (read_file path) with Ok d -> d | Error e -> failwith (path ^ ": " ^ e)
  in
  let section key =
    match J.member key doc with
    | Some (J.List ms) ->
        List.filter_map
          (fun m ->
            match (J.string_field "name" m, J.string_field "unit" m, J.string_field "better" m) with
            | Some n, Some u, Some b ->
                let bound =
                  match J.member "bound" m with
                  | Some (J.Float f) -> Some f
                  | Some (J.Int i) -> Some (float_of_int i)
                  | _ -> None
                in
                Some { s_name = n; s_unit = u; higher = b = "higher"; bound }
            | _ -> None)
          ms
    | _ -> []
  in
  section "end_to_end" @ section "per_layer"

type run = { workload : string; seed : int; traced : bool; values : (string * float) list }

let load_run path =
  match J.parse (read_file path) with
  | Error _ | (exception Sys_error _) -> None
  | Ok doc -> (
      match (J.string_field "schema" doc, J.string_field "workload" doc) with
      | Some s, Some workload when s = schema ->
          let values =
            match J.member "metrics" doc with
            | Some (J.Obj ms) ->
                List.filter_map
                  (fun (k, v) ->
                    match J.member "value" v with
                    | Some (J.Float f) -> Some (k, f)
                    | Some (J.Int i) -> Some (k, float_of_int i)
                    | _ -> None)
                  ms
            | _ -> []
          in
          Some
            {
              workload;
              seed = Option.value (J.int_field "seed" doc) ~default:0;
              traced = J.bool_field "trace" doc = Some true;
              values;
            }
      | _ -> None)

let load_runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".json" && not (Filename.check_suffix f ".trace.json") then
           load_run (Filename.concat dir f)
         else None)

(* The verdict of change [b] against parent [a] for one metric, by the
   rules of the README: a spread wider than the bound leaves the metric
   unresolved unless every run of one side beats every run of the other;
   a median worse by more than the bound is a regression; a gain needs
   the change to win nine tenths of the seed-paired runs and to move the
   median by more than the parent's own interquartile distance. *)
let verdict ~higher ~bound ~pairs a b =
  let ma = median a and mb = median b in
  let better x y = if higher then x > y else x < y in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let all_worse = List.for_all (fun y -> List.for_all (fun x -> better x y) a) b in
  let worse_by = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
  let q1, q3 = quartiles a in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let won = if pairs = [] then all_better else float_of_int wins >= 0.9 *. float_of_int (List.length pairs) in
  if spread a > bound || spread b > bound then
    if all_better then "better" else if all_worse then "worse" else "unresolved"
  else if worse_by > bound then "worse"
  else if won && Float.abs (mb -. ma) > q3 -. q1 && worse_by < 0. then "better"
  else "same"

let compare_dirs ~spec_path dir_a dir_b =
  let specs = load_spec spec_path in
  let runs_a = load_runs dir_a and runs_b = load_runs dir_b in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (runs_a @ runs_b))
  in
  let worse = ref 0 in
  List.iter
    (fun w ->
      let ra = List.filter (fun r -> r.workload = w) runs_a
      and rb = List.filter (fun r -> r.workload = w) runs_b in
      let runs rs =
        let t = List.length (List.filter (fun r -> r.traced) rs) in
        Printf.sprintf "%d untraced + %d traced runs" (List.length rs - t) t
      in
      Printf.printf "== %s (A: %s; B: %s)\n" w (runs ra) (runs rb);
      Printf.printf "%-28s %-10s %32s %32s %8s  %s\n" "metric" "unit" "A median [q1, q3]"
        "B median [q1, q3]" "change" "verdict";
      List.iter
        (fun sp ->
          let vals rs = List.filter_map (fun r -> List.assoc_opt sp.s_name r.values) rs in
          let a = vals ra and b = vals rb in
          if a <> [] && b <> [] then begin
            let show xs =
              let q1, q3 = quartiles xs in
              Printf.sprintf "%.6g [%.6g, %.6g]" (median xs) q1 q3
            in
            let ma = median a and mb = median b in
            let change = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma *. 100. in
            let pairs =
              List.filter_map
                (fun r ->
                  Option.bind (List.assoc_opt sp.s_name r.values) (fun x ->
                      List.find_map
                        (fun r' ->
                          if r'.seed = r.seed then
                            Option.map (fun y -> (x, y)) (List.assoc_opt sp.s_name r'.values)
                          else None)
                        rb))
                ra
            in
            let v =
              match sp.bound with
              | Some bound -> verdict ~higher:sp.higher ~bound ~pairs a b
              | None -> "-"
            in
            if v = "worse" then incr worse;
            Printf.printf "%-28s %-10s %32s %32s %+7.2f%%  %s\n" sp.s_name sp.s_unit (show a) (show b)
              change v
          end)
        specs)
    workloads;
  if !worse > 0 then 1 else 0
