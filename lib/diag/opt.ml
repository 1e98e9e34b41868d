type front = Cli | Serve | Manifest

type t = { name : string; min : int; default : int option; fronts : front list }

let v ?default name ~min fronts = { name; min; default; fronts }
let every = [ Cli; Serve; Manifest ]
let beam = v "beam" ~min:1 ~default:8 every
let depth = v "depth" ~min:0 ~default:3 every
let finalists = v "finalists" ~min:1 ~default:6 every
let size = v "size" ~min:1 ~default:48 every
let seed = v "seed" ~min:0 ~default:0 every
let budget = v "budget" ~min:1 ~default:500_000 every
let timeout_ms = v "timeout_ms" ~min:0 ~default:0 every
let jobs = v "jobs" ~min:1 ~default:1 [ Cli ]
let threads = v "threads" ~min:1 ~default:2 [ Cli; Manifest ]
let repeat = v "repeat" ~min:1 ~default:3 [ Cli ]
let run = v "run" ~min:1 [ Manifest ]
let cases = v "cases" ~min:1 ~default:100 [ Cli; Serve ]
let case_timeout_ms = v "case_timeout_ms" ~min:0 ~default:2000 [ Serve ]
let work = v "work" ~min:1 [ Cli ]
let line_elems = v "line_elems" ~min:1 ~default:8 [ Cli ]
let queue_cap = v "queue_cap" ~min:1 ~default:256 [ Cli ]
let max_request_bytes = v "max_request_bytes" ~min:1 ~default:(1 lsl 20) [ Cli ]
let checkpoint_every = v "checkpoint_every" ~min:0 ~default:32 [ Cli ]

let all =
  [
    beam; depth; finalists; size; seed; budget; timeout_ms; jobs; threads; repeat; run; cases;
    case_timeout_ms; work; line_elems; queue_cap; max_request_bytes; checkpoint_every;
  ]

let taken_by front = List.filter (fun o -> List.mem front o.fronts) all

let default o =
  match o.default with Some d -> d | None -> invalid_arg ("Opt.default: " ^ o.name)

let flag o = String.map (function '_' -> '-' | c -> c) o.name
let expected o = Printf.sprintf "an integer >= %d" o.min
let refusal ?name o shown =
  Printf.sprintf "%s=%s: expected %s" (Option.value name ~default:o.name) shown (expected o)

let check ?name o n = if n >= o.min then Ok n else Error (refusal ?name o (string_of_int n))

let parse o s =
  match int_of_string_opt s with Some n -> check o n | None -> Error (refusal o s)
