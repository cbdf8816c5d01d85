type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length t = t.size

let check t i name =
  if i < 0 || i >= t.size then
    invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds (size %d)" name i t.size)

let push t x =
  let cap = Array.length t.data in
  if t.size >= cap then begin
    let cap' = if cap = 0 then 8 else cap * 2 in
    let data' = Array.make cap' x in
    Array.blit t.data 0 data' 0 t.size;
    t.data <- data'
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let get t i =
  check t i "get";
  t.data.(i)

let set t i x =
  check t i "set";
  t.data.(i) <- x

(* Shrink to [n] elements, overwriting every slot from [n] up with a
   live element (or letting go of the array when nothing stays), so
   neither the vacated slots nor the spare capacity pin a removed
   element until the slot is reused. *)
let vacate t n =
  if n = 0 then t.data <- [||]
  else Array.fill t.data n (Array.length t.data - n) t.data.(0);
  t.size <- n

let truncate t n = if n < t.size then vacate t (max 0 n)

let last t = if t.size = 0 then None else Some t.data.(t.size - 1)

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) t;
  !acc

let of_list xs =
  let t = create () in
  List.iter (push t) xs;
  t

let drop t n =
  let n = max 0 (min n t.size) in
  if n > 0 then begin
    Array.blit t.data n t.data 0 (t.size - n);
    vacate t (t.size - n)
  end
