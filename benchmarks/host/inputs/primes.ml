fun from n = fn u => (n, from (n + 1)) in
fun filter p s = fn u =>
  let pr = s () in
  (case pr of (x, rest) =>
    if p x then (x, filter p rest)
    else (filter p rest) ()) in
fun sieve s = fn u =>
  let pr = s () in
  (case pr of (x, rest) =>
    (x, sieve (filter (fn y => (y mod x) <> 0) rest))) in
fun take k s acc =
  if k = 0 then acc
  else let pr = s () in
       (case pr of (x, rest) => take (k - 1) rest (acc + x)) in
fun count l acc = case l of [] => acc | x :: r => count r (acc + 1) in
fun ballast n acc = if n = 0 then acc else ballast (n - 1) (n :: acc) in
let held = ballast %BALLAST% [] in
let total = take %COUNT% (sieve (from 2)) 0 in
print ("primes-sum " ^ itos total ^ " ballast " ^ itos (count held 0) ^ "\n")
