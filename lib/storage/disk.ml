(* The storage seam: a sector-addressed block device as a record of
   closures, mirroring Context's role for protocol processes.  The
   simulator backs it with memory (Sim_disk); the TCP runtime backs
   it with a real file.  Everything above (Wal) is written against this
   record only, so the persistence format and the recovery ladder are
   byte-identical under simulation and on a live deployment. *)

type t = {
  sector_size : int;
  sector_count : int;
  read : int -> string;
  write : int -> string -> unit;
  sync : unit -> unit;
}

let in_range t sector = sector >= 0 && sector < t.sector_count

let read t ~sector =
  if not (in_range t sector) then
    invalid_arg (Printf.sprintf "Disk.read: sector %d out of range" sector);
  t.read sector

let write t ~sector data =
  if not (in_range t sector) then
    invalid_arg (Printf.sprintf "Disk.write: sector %d out of range" sector);
  if not (Int.equal (String.length data) t.sector_size) then
    invalid_arg
      (Printf.sprintf "Disk.write: %d bytes, sector size is %d"
         (String.length data) t.sector_size);
  t.write sector data

let sync t = t.sync ()

let zeros t = String.make t.sector_size '\000'
