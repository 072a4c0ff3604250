type access = [ `Read | `Write ]

type t = {
  mutable addr : Page.addr;
  mutable vpage : Page.vpage;
  mutable pkey : Pkey.t;
  mutable access : access;
  mutable thread : int;
  mutable ip : int;
  mutable time : int;
}

let make ~addr ~pkey ~access ~thread ~ip ~time =
  { addr; vpage = Page.vpage_of_addr addr; pkey; access; thread; ip; time }

let overwrite t ~addr ~pkey ~access ~thread ~ip ~time =
  t.addr <- addr;
  t.vpage <- Page.vpage_of_addr addr;
  t.pkey <- pkey;
  t.access <- access;
  t.thread <- thread;
  t.ip <- ip;
  t.time <- time

let pp_access fmt = function
  | `Read -> Format.pp_print_string fmt "read"
  | `Write -> Format.pp_print_string fmt "write"

let pp fmt t =
  Format.fprintf fmt "#GP{t%d %a %a key=%a ip=%d @@%d}" t.thread pp_access t.access
    Page.pp_addr t.addr Pkey.pp t.pkey t.ip t.time
