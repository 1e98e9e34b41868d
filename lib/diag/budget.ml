type t = { fm_work : int; max_coeff_bits : int; max_projections : int; fuel : int }

let default = { fm_work = 500_000; max_coeff_bits = 4096; max_projections = 200_000; fuel = max_int }

let with_fm_work t n = { t with fm_work = max 1 n }

(* The budget used when a caller does not thread one explicitly; the CLI
   installs it from --budget / INL_FM_BUDGET, and {!Retry} installs each
   attempt's budget and restores the previous one afterwards. *)
let process = Atomic.make default
let install b = Atomic.set process b
let current () = Atomic.get process

let of_env ?(base = default) () =
  match Sys.getenv_opt "INL_FM_BUDGET" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> with_fm_work base n
      | _ -> base)
  | None -> base
