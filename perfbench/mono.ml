(* Monotonic integer-nanosecond clock and the small statistics the
   benchmark reports.  Every benchmark timing goes through [now_ns]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ns_to_s ns = float_of_int ns *. 1e-9

let ns_to_us ns = float_of_int ns *. 1e-3

(* Growable int buffer outside the OCaml heap: latency samples are pushed
   inside timed regions, and neither pushing nor the buffer's size may
   show in the broker's allocation or peak-heap figures. *)
module Buf = struct
  open Bigarray

  type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create int c_layout 65536; n = 0 }

  let push t x =
    if t.n = Array1.dim t.a then begin
      let a = Array1.create int c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub a 0 t.n);
      t.a <- a
    end;
    Array1.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let length t = t.n

  let to_array t = Array.init t.n (fun i -> Array1.unsafe_get t.a i)
end

(* Nearest-rank percentile of unsorted samples ([p] in 0..100). *)
let percentile_int samples ~p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile_int: no samples";
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) k))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median_float: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean of the samples without the lowest and the highest (of all of
   them when there are fewer than three).  Used where the samples are few
   and the host flips between a fast and a slow regime for seconds at a
   time: a median of such samples jumps from one regime's value to the
   other's as the mix crosses one half, a mean moves with the mix, and
   dropping the extremes keeps one stall from moving it. *)
let trimmed_mean_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "trimmed_mean_float: empty";
  let lo, hi = if n < 3 then (0, n) else (1, n - 1) in
  let s = ref 0. in
  for i = lo to hi - 1 do s := !s +. a.(i) done;
  !s /. float_of_int (hi - lo)

(* Time [f] and return its result with the elapsed nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* [timed] from a settled heap: short recovery regions otherwise inherit
   whatever major-GC debt the work before them left. *)
let timed_settled f =
  Gc.full_major ();
  timed f

(* Garbage-collector counters, summed over every domain (OCaml 5 folds
   running domains into [Gc.quick_stat]). *)
type gc = { minor_words : float; promoted_words : float; minor : int; major : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* A 63-bit FNV-style running digest of a decision sequence. *)
let mix h x = ((h lxor x) * 0x100000001b3) land max_int

let fnv0 = 0x4bf29ce484222325
