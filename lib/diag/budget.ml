type t = { fm_work : int; max_coeff_bits : int; max_projections : int; fuel : int }

let default =
  { fm_work = Opt.default Opt.budget; max_coeff_bits = 4096; max_projections = 200_000;
    fuel = max_int }

let with_fm_work t n = { t with fm_work = max 1 n }

(* The budget used when a caller does not thread one explicitly; the CLI
   installs it from --budget / INL_FM_BUDGET, and {!Retry} installs each
   attempt's budget and restores the previous one afterwards. *)
let process = Atomic.make default
let install b = Atomic.set process b
let current () = Atomic.get process
