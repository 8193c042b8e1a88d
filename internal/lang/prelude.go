package lang

// Prelude is MiniML's standard library: list, pair, string, arithmetic and
// concurrency helpers written in MiniML itself. Callers prepend it to a
// program (Compile(m, Prelude+src)); the compiler's flat closure conversion
// ensures unused bindings cost nothing at run time beyond their one-time
// definition (each is a single closure allocation).
//
// The library triples as (a) user convenience, (b) a substantial body of
// idiomatic MiniML exercising every language feature, and (c) extra
// compiler workload for the Comp benchmark's corpus.
const Prelude = `
(* ---- arithmetic ---- *)
fun min a b = if a < b then a else b in
fun max a b = if a < b then b else a in
fun abs n = if n < 0 then ~1 * n else n in
fun gcd a b = if b = 0 then abs a else gcd b (a mod b) in
fun pow b e = if e = 0 then 1 else b * pow b (e - 1) in

(* ---- pairs ---- *)
fun fst p = #1 p in
fun snd p = #2 p in
fun swap p = (#2 p, #1 p) in

(* ---- lists ---- *)
fun null l = case l of [] => true | _ => false in
fun hd l = case l of x :: _ => x in
fun tl l = case l of _ :: r => r in
fun length l =
  let r = ref l in
  let n = ref 0 in
  fun go u = case !r of [] => !n | _ :: t => (r := t; n := !n + 1; go ()) in
  go () in
fun revapp a b = case a of [] => b | x :: r => revapp r (x :: b) in
fun rev l = revapp l [] in
fun append a b = case a of [] => b | x :: r => x :: append r b in
fun map f l = case l of [] => [] | x :: r => f x :: map f r in
fun appl f l = case l of [] => () | x :: r => (f x; appl f r) in
fun filterl p l =
  case l of
    [] => []
  | x :: r => if p x then x :: filterl p r else filterl p r in
fun foldl f acc l = case l of [] => acc | x :: r => foldl f (f acc x) r in
fun foldr f acc l = case l of [] => acc | x :: r => f x (foldr f acc r) in
fun nth l i = case l of x :: r => if i = 0 then x else nth r (i - 1) in
fun take n l =
  if n = 0 then []
  else case l of [] => [] | x :: r => x :: take (n - 1) r in
fun drop n l =
  if n = 0 then l
  else case l of [] => [] | _ :: r => drop (n - 1) r in
fun exists p l = case l of [] => false | x :: r => p x orelse exists p r in
fun all p l = case l of [] => true | x :: r => p x andalso all p r in
fun member x l = exists (fn y => y = x) l in
fun zip a b =
  case a of
    [] => []
  | x :: xs =>
      (case b of [] => [] | y :: ys => (x, y) :: zip xs ys) in
fun range lo hi = if lo >= hi then [] else lo :: range (lo + 1) hi in
fun suml l = foldl (fn a => fn x => a + x) 0 l in
fun tabulate n f =
  fun go i = if i = n then [] else f i :: go (i + 1) in
  go 0 in

(* ---- sorting (the prelude's own mergesort) ---- *)
fun msort cmp l =
  fun split l a b = case l of [] => (a, b) | x :: r => split r (x :: b) a in
  fun mergei a b acc =
    case a of
      [] => revapp acc b
    | x :: xs =>
        (case b of
           [] => revapp acc a
         | y :: ys =>
             if cmp x y then mergei xs b (x :: acc)
             else mergei a ys (y :: acc)) in
  fun go l =
    case l of
      [] => []
    | x :: r =>
        (case r of
           [] => l
         | _ => let p = split l [] [] in
                mergei (go (#1 p)) (go (#2 p)) []) in
  go l in

(* ---- strings ---- *)
fun strrep s n = if n = 0 then "" else s ^ strrep s (n - 1) in
fun joinl sep l =
  case l of
    [] => ""
  | x :: r => (case r of [] => x | _ => x ^ sep ^ joinl sep r) in
fun itoslist l = map (fn x => itos x) l in
fun println s = print (s ^ "\n") in

(* ---- refs and arrays ---- *)
fun incr r = r := !r + 1 in
fun decr r = r := !r - 1 in
fun afill a v =
  fun go i = if i = alen a then () else (aset a i v; go (i + 1)) in
  go 0 in
fun atolist a =
  fun go i = if i = alen a then [] else aget a i :: go (i + 1) in
  go 0 in
fun afromlist l =
  let a = array (length l) 0 in
  fun go i rest = case rest of [] => a | x :: r => (aset a i x; go (i + 1) r) in
  go 0 l in

(* ---- futures (threads + sync vars) ---- *)
fun future f = let sv = newsv () in (spawn (fn u => putsv sv (f ())); sv) in
fun force sv = takesv sv in
fun parmap f l = map (fn sv => force sv) (map (fn x => future (fn u => f x)) l) in
`
