type t = MD5 | SHA1 | SHA256

let size = function MD5 -> 16 | SHA1 -> 20 | SHA256 -> 32

let md = function MD5 -> Md5.md | SHA1 -> Sha1.md | SHA256 -> Sha256.md

let digest t msg = Merkle_damgard.digest (md t) msg

let name = function MD5 -> "md5" | SHA1 -> "sha1" | SHA256 -> "sha256"

let of_name = function
  | "md5" -> MD5
  | "sha1" -> SHA1
  | "sha256" -> SHA256
  | s -> invalid_arg ("Digest_alg.of_name: unknown algorithm " ^ s)

let equal a b =
  match (a, b) with
  | MD5, MD5 | SHA1, SHA1 | SHA256, SHA256 -> true
  | (MD5 | SHA1 | SHA256), _ -> false

let pp fmt t = Format.pp_print_string fmt (name t)
