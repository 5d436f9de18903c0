(** Growable arrays (the stdlib gains [Dynarray] only in OCaml 5.2). *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ~dummy = { data = Array.make 8 dummy; len = 0; dummy }

let length t = t.len

let clear t = t.len <- 0

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let to_array t = Array.sub t.data 0 t.len

let of_array ~dummy arr =
  let t = create ~dummy in
  Array.iter (push t) arr;
  t
