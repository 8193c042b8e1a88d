let seed = ref %SEED% in
let draws = ref 0 in
let cmps = ref 0 in
fun rnd u =
  (seed := ((!seed * 1103515245) + 12345) mod 1073741824;
   draws := !draws + 1;
   !seed mod 1000000) in
fun build n acc = if n = 0 then acc else build (n - 1) (rnd () :: acc) in
fun split l a b = case l of [] => (a, b) | x :: r => split r (x :: b) a in
fun revapp a b = case a of [] => b | x :: r => revapp r (x :: b) in
fun mergei a b acc =
  case a of
    [] => revapp acc b
  | x :: xs =>
      (case b of
         [] => revapp acc a
       | y :: ys =>
           (cmps := !cmps + 1;
            if x <= y then mergei xs b (x :: acc) else mergei a ys (y :: acc))) in
fun merge a b = mergei a b [] in
fun msort l =
  case l of
    [] => []
  | x :: r =>
      (case r of
         [] => l
       | _ => let p = split l [] [] in merge (msort (#1 p)) (msort (#2 p))) in
fun future f = let sv = newsv () in (spawn (fn u => putsv sv (f ())); sv) in
fun pmsort d l =
  if d = 0 then msort l
  else case l of
    [] => []
  | x :: r =>
      (case r of
         [] => l
       | _ =>
           let p = split l [] [] in
           let other = future (fn u => pmsort (d - 1) (#1 p)) in
           let mine = pmsort (d - 1) (#2 p) in
           merge (takesv other) mine) in
let out = array %SIZE% 0 in
fun store l i = case l of [] => i | x :: r => (aset out i x; store r (i + 1)) in
fun checksum i acc =
  if i = alen out then acc
  else checksum (i + 1) ((acc + (aget out i) * (i + 1)) mod 1000000007) in
fun sorted i =
  if i + 1 >= alen out then true
  else aget out i <= aget out (i + 1) andalso sorted (i + 1) in
let input = build %SIZE% [] in
let result = pmsort %DEPTH% input in
let stored = store result 0 in
(if sorted 0 then print "sorted " else print "UNSORTED ";
 print ("checksum " ^ itos (checksum 0 0) ^ " draws " ^ itos (!draws)
        ^ " cmps " ^ itos (!cmps) ^ "\n"))
