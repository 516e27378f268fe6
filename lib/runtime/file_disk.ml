module Disk = Sof_storage.Disk

type t = { fd : Unix.file_descr; view : Disk.t }

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let really_read fd buf off len =
  let rec go off remaining =
    if remaining > 0 then
      match Unix.read fd buf off remaining with
      | 0 -> Bytes.fill buf off remaining '\000' (* hole past a short file *)
      | k -> go (off + k) (remaining - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining
  in
  go off len

let really_write fd data off len =
  let rec go off remaining =
    if remaining > 0 then
      match Unix.write_substring fd data off remaining with
      | k -> go (off + k) (remaining - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining
  in
  go off len

let open_file ~path ?(sector_size = 256) ?(sector_count = 8192) () =
  if sector_size < 16 then invalid_arg "File_disk.open_file: sector_size < 16";
  if sector_count < 4 then invalid_arg "File_disk.open_file: sector_count < 4";
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  Unix.ftruncate fd (sector_size * sector_count);
  (* One lock serialises seek+IO pairs; the worker is the only writer, but
     a restart's replay may overlap a late reader thread's teardown. *)
  let lock = Mutex.create () in
  {
    fd;
    view =
      {
        Disk.sector_size;
        sector_count;
        read =
          (fun sector ->
            with_lock lock (fun () ->
                ignore (Unix.lseek fd (sector * sector_size) Unix.SEEK_SET);
                let buf = Bytes.create sector_size in
                really_read fd buf 0 sector_size;
                Bytes.unsafe_to_string buf));
        write =
          (fun sector data ->
            with_lock lock (fun () ->
                ignore (Unix.lseek fd (sector * sector_size) Unix.SEEK_SET);
                really_write fd data 0 sector_size));
        sync = (fun () -> Unix.fsync fd);
      };
  }

let disk t = t.view

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
