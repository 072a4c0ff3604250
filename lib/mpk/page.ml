type addr = int
type vpage = int

let shift = 12
let size = 1 lsl shift
let vpage_of_addr addr = addr lsr shift
let base_of_vpage vpage = vpage lsl shift
let offset_in_page addr = addr land (size - 1)

let pages_spanned base len =
  assert (len >= 0);
  if len = 0 then 1
  else vpage_of_addr (base + len - 1) - vpage_of_addr base + 1

let pp_addr fmt addr = Format.fprintf fmt "0x%x" addr
