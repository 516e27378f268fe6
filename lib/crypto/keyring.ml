type node_key =
  | Hmac_key of string
  | Rsa_key of Rsa.secret
  | Dsa_key of Dsa.secret

type auth = Sign | Mac

let auth_name = function Sign -> "sign" | Mac -> "mac"

let tag_size = Digest_alg.size Digest_alg.SHA256

type t = {
  scheme : Scheme.t;
  keys : node_key array;
  mac_keys : string array array;
      (* Pairwise symmetric keys: [mac_keys.(i).(j) = mac_keys.(j).(i)] is
         the key nodes i and j share.  Empty unless MACs are provisioned. *)
  node_states : Hmac.keyed option array;
  mac_states : Hmac.keyed option array array;
      (* Keyed states of [keys] and [mac_keys], filled on first use so setup
         pays for none.  Slots hold immutable values, so threads sharing
         the ring at worst compute one twice. *)
  rng : Sof_util.Rng.t; (* for DSA per-signature nonces *)
  signature_size : int;
}

(* One draw per unordered pair, mirrored, so the matrix is symmetric and the
   dealer's RNG consumption is independent of who signs first. *)
let provision_mac rng node_count =
  let m = Array.make_matrix node_count node_count "" in
  for i = 0 to node_count - 1 do
    for j = i to node_count - 1 do
      let key = Bytes.to_string (Sof_util.Rng.bytes rng 32) in
      m.(i).(j) <- key;
      m.(j).(i) <- key
    done
  done;
  m

let create ?key_bits ?(auth = Sign) ~scheme ~rng ~node_count () =
  let keys =
    match scheme.Scheme.mechanism with
    | Scheme.Unsigned | Scheme.Mac_vector -> Array.make node_count (Hmac_key "")
    | Scheme.Mock_hmac ->
      Array.init node_count (fun _ ->
          Hmac_key (Bytes.to_string (Sof_util.Rng.bytes rng 32)))
    | Scheme.Rsa nominal_bits ->
      let bits = Option.value key_bits ~default:nominal_bits in
      Array.init node_count (fun _ -> Rsa_key (Rsa.generate rng ~bits))
    | Scheme.Dsa nominal_bits ->
      let pbits = Option.value key_bits ~default:nominal_bits in
      let qbits = min 160 (pbits - 32) in
      let params = Dsa.generate_params rng ~pbits ~qbits in
      Array.init node_count (fun _ -> Dsa_key (Dsa.generate_key rng params))
  in
  let mac_keys =
    match (scheme.Scheme.mechanism, auth) with
    | Scheme.Mac_vector, _ -> provision_mac rng node_count
    | (Scheme.Mock_hmac | Scheme.Rsa _ | Scheme.Dsa _), Mac ->
      provision_mac rng node_count
    | Scheme.Unsigned, _ | _, Sign -> [||]
  in
  let signature_size =
    match scheme.Scheme.mechanism with
    | Scheme.Unsigned -> 0
    | Scheme.Mac_vector -> node_count * tag_size
    | Scheme.Mock_hmac ->
      (* Pad mock signatures up to the scheme's nominal wire size so that
         message sizes — and hence serialisation and transfer costs — match
         the real mechanism. *)
      max tag_size scheme.Scheme.costs.Scheme.signature_bytes
    | Scheme.Rsa _ | Scheme.Dsa _ -> begin
      match keys.(0) with
      | Rsa_key k -> Rsa.signature_size (Rsa.public_of_secret k)
      | Dsa_key k -> Dsa.signature_size (Dsa.public_of_secret k).Dsa.params
      | Hmac_key _ -> assert false
    end
  in
  {
    scheme;
    keys;
    mac_keys;
    node_states = Array.make node_count None;
    mac_states = Array.map (fun row -> Array.make (Array.length row) None) mac_keys;
    rng;
    signature_size;
  }

let scheme t = t.scheme

let node_count t = Array.length t.keys

let signature_size t = t.signature_size

let mac_provisioned t = Array.length t.mac_keys > 0

let vector_size t = node_count t * tag_size

let check_range t signer =
  if signer < 0 || signer >= Array.length t.keys then
    invalid_arg "Keyring.sign: signer out of range"

let keyed_state slots i key =
  match slots.(i) with
  | Some k -> k
  | None ->
    let k = Hmac.keyed ~alg:Digest_alg.SHA256 key in
    slots.(i) <- Some k;
    k

let mac_state t ~signer ~receiver =
  keyed_state t.mac_states.(signer) receiver t.mac_keys.(signer).(receiver)

let pad_mock t tag =
  let pad = t.signature_size - String.length tag in
  if pad <= 0 then tag else tag ^ String.make pad '\000'

(* Any other padding would make md5-rsa1024's last 96 bytes malleable. *)
let zero_padded signature =
  let ok = ref true in
  for i = tag_size to String.length signature - 1 do
    ok := !ok && Char.equal signature.[i] '\000'
  done;
  !ok

(* ---------------------------------------------------- authenticator vectors *)

let sign_vector t ~signer msg =
  check_range t signer;
  if not (mac_provisioned t) then
    invalid_arg "Keyring.sign_vector: MAC keys not provisioned";
  String.concat ""
    (List.init (node_count t) (fun j -> Hmac.tag (mac_state t ~signer ~receiver:j) msg))

let vector_entry_ok t ~verifier ~signer ~msg ~signature =
  Hmac.check (mac_state t ~signer ~receiver:verifier) ~msg ~tag:signature
    ~pos:(verifier * tag_size)

let verify_vector t ~verifier ~signer ~msg ~signature =
  mac_provisioned t
  && signer >= 0
  && signer < node_count t
  && verifier >= 0
  && verifier < node_count t
  && Int.equal (String.length signature) (vector_size t)
  && vector_entry_ok t ~verifier ~signer ~msg ~signature

(* ------------------------------------------------------ scheme signatures *)

let sign t ~signer msg =
  check_range t signer;
  match t.keys.(signer) with
  | Hmac_key "" when t.scheme.Scheme.mechanism = Scheme.Mac_vector ->
    sign_vector t ~signer msg
  | Hmac_key "" -> ""
  | Hmac_key key -> pad_mock t (Hmac.tag (keyed_state t.node_states signer key) msg)
  | Rsa_key key -> Rsa.sign key ~alg:t.scheme.Scheme.digest msg
  | Dsa_key key -> Dsa.sign t.rng key ~alg:t.scheme.Scheme.digest msg

let verify ?verifier t ~signer ~msg ~signature =
  signer >= 0
  && signer < Array.length t.keys
  && begin
       match t.keys.(signer) with
       | Hmac_key "" when t.scheme.Scheme.mechanism = Scheme.Mac_vector -> begin
         (* With a [verifier], check that receiver's entry; without one,
            take the dealer's view and require every entry to be good. *)
         match verifier with
         | Some v -> verify_vector t ~verifier:v ~signer ~msg ~signature
         | None ->
           Int.equal (String.length signature) (vector_size t)
           && begin
                let ok = ref true in
                for v = 0 to node_count t - 1 do
                  ok :=
                    !ok && vector_entry_ok t ~verifier:v ~signer ~msg ~signature
                done;
                !ok
              end
       end
       | Hmac_key "" -> String.length signature = 0
       | Hmac_key key ->
         Int.equal (String.length signature) t.signature_size
         && zero_padded signature
         && Hmac.check (keyed_state t.node_states signer key) ~msg ~tag:signature ~pos:0
       | Rsa_key key ->
         Rsa.verify (Rsa.public_of_secret key) ~alg:t.scheme.Scheme.digest ~msg
           ~signature
       | Dsa_key key ->
         Dsa.verify (Dsa.public_of_secret key) ~alg:t.scheme.Scheme.digest ~msg
           ~signature
     end
