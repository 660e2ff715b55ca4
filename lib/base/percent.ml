let encode ~reserved s =
  let reserved c = c = '%' || reserved c in
  if not (String.exists reserved s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if reserved c then Printf.bprintf b "%%%02X" (Char.code c)
        else Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let hex = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | _ -> None

let decode s =
  if not (String.contains s '%') then Some s
  else begin
    let n = String.length s in
    let b = Buffer.create n in
    let rec go i =
      if i >= n then Some (Buffer.contents b)
      else if s.[i] <> '%' then begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
      else if i + 2 >= n then None
      else
        match (hex s.[i + 1], hex s.[i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char b (Char.chr ((hi * 16) + lo));
            go (i + 3)
        | _ -> None
    in
    go 0
  end
