module Traffic = Bbr_vtrs.Traffic
module Topology = Bbr_vtrs.Topology

let header = "bbr-snapshot v2"

(* Floats are printed in full hex precision so a round trip is
   bit-exact. *)
let pf = Printf.sprintf "%h"

(* Paths are named by their link-id sequences, the identity that is stable
   across brokers (path ids depend on registration order). *)
let links_str links =
  String.concat ","
    (List.map (fun (l : Topology.link) -> string_of_int l.Topology.link_id) links)

let save broker =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  (* The primary's id horizon: a restored standby must never hand out an id
     the primary may already have given to an ingress router. *)
  Buffer.add_string buf
    (Printf.sprintf "next %d\n" (Flow_mib.next_id (Broker.flow_mib broker)));
  (* Links down at the checkpoint.  The journal tail replays its [admit]
     records by routing them again, so a restore must put every link back
     in the state these admissions saw; the tail's link records then move
     it forward to the crash. *)
  let topo = Broker.topology broker in
  List.iter
    (fun (l : Topology.link) ->
      if not (Topology.link_is_up topo ~link_id:l.Topology.link_id) then
        Buffer.add_string buf (Printf.sprintf "down %d\n" l.Topology.link_id))
    (Topology.links topo);
  (* Per-flow reservations, in admission (flow-id) order so that a replay
     reproduces identical bookkeeping.  Each line names the links the flow
     is booked on: a flow rerouted by a link failure stays on its detour
     after the link comes back, so re-routing it on restore would move it
     (or fail to fit it at all). *)
  let records =
    Flow_mib.fold (Broker.flow_mib broker) ~init:[] ~f:(fun acc r -> r :: acc)
    |> List.sort (fun (a : Flow_mib.record) b -> compare a.Flow_mib.flow b.Flow_mib.flow)
  in
  List.iter
    (fun (r : Flow_mib.record) ->
      let p = r.Flow_mib.request.Types.profile in
      let res = r.Flow_mib.reservation in
      Buffer.add_string buf
        (Printf.sprintf "flow %d %s %s %s %s %s %s %s %s %s %s\n" r.Flow_mib.flow
           (pf p.Traffic.sigma) (pf p.Traffic.rho) (pf p.Traffic.peak)
           (pf p.Traffic.lmax)
           (pf r.Flow_mib.request.Types.dreq)
           r.Flow_mib.request.Types.ingress r.Flow_mib.request.Types.egress
           (pf res.Types.rate) (pf res.Types.delay)
           (links_str r.Flow_mib.path.Path_mib.links)))
    records;
  (* Class-based memberships, macroflow by macroflow, member order by flow
     id, each naming its macroflow's links for the same reason. *)
  let agg = Broker.aggregate broker in
  let pm = Broker.path_mib broker in
  List.iter
    (fun (s : Aggregate.macro_stats) ->
      match Path_mib.find pm ~path_id:s.Aggregate.path_id with
      | None -> ()
      | Some info ->
          let links = links_str info.Path_mib.links in
          List.iter
            (fun (flow, (p : Traffic.t)) ->
              Buffer.add_string buf
                (Printf.sprintf "member %d %d %s %s %s %s %s\n" flow
                   s.Aggregate.class_id (pf p.Traffic.sigma) (pf p.Traffic.rho)
                   (pf p.Traffic.peak) (pf p.Traffic.lmax) links))
            (Aggregate.members agg ~class_id:s.Aggregate.class_id
               ~path_id:s.Aggregate.path_id))
    (Aggregate.all_macroflows agg);
  (* Auxiliary aggregate state.  Replaying the member joins above creates
     fresh contingency grants and recomputes edge-delay bounds from
     scratch, while the primary's actual pools may be smaller (grants
     already released) and its bounds decayed.  The [aux] marker tells
     the restore to sweep the join-created contingency and re-establish
     the exact saved grants and bounds. *)
  Buffer.add_string buf "aux\n";
  List.iter
    (fun (s : Aggregate.macro_stats) ->
      match Path_mib.find pm ~path_id:s.Aggregate.path_id with
      | None -> ()
      | Some info ->
          let links = links_str info.Path_mib.links in
          List.iter
            (fun amount ->
              Buffer.add_string buf
                (Printf.sprintf "grant %d %s %s\n" s.Aggregate.class_id links
                   (pf amount)))
            (Aggregate.grant_amounts agg ~class_id:s.Aggregate.class_id
               ~path_id:s.Aggregate.path_id);
          Buffer.add_string buf
            (Printf.sprintf "bound %d %s %s\n" s.Aggregate.class_id links
               (pf s.Aggregate.edge_bound)))
    (Aggregate.all_macroflows agg);
  Buffer.contents buf

type entry =
  [ `Next of int
  | `Down of int
  | `Flow of int * Traffic.t * float * string * string * float * float * int list
  | `Member of int * int * Traffic.t * int list
  | `Aux
  | `Grant of int * int list * float
  | `Bound of int * int list * float ]

let links_of_str s = List.map int_of_string (String.split_on_char ',' s)

let parse_line line : ([ entry | `Blank ], string) result =
  let unparseable () = Error (Printf.sprintf "unparseable snapshot line: %S" line) in
  match String.split_on_char ' ' (String.trim line) with
  | exception _ -> unparseable ()
  | fields -> (
      (* Malformed numeric fields must yield a parse error, not an
         exception escaping [restore]. *)
      match
        match fields with
        | [ "next"; n ] -> `Next (int_of_string n)
        | [ "down"; id ] -> `Down (int_of_string id)
        | [ "flow"; id; sigma; rho; peak; lmax; dreq; ingress; egress; rate; delay; links ]
          ->
            `Flow
              ( int_of_string id,
                Traffic.make ~sigma:(float_of_string sigma)
                  ~rho:(float_of_string rho) ~peak:(float_of_string peak)
                  ~lmax:(float_of_string lmax),
                float_of_string dreq,
                ingress,
                egress,
                float_of_string rate,
                float_of_string delay,
                links_of_str links )
        | [ "member"; id; class_id; sigma; rho; peak; lmax; links ] ->
            `Member
              ( int_of_string id,
                int_of_string class_id,
                Traffic.make ~sigma:(float_of_string sigma)
                  ~rho:(float_of_string rho) ~peak:(float_of_string peak)
                  ~lmax:(float_of_string lmax),
                links_of_str links )
        | [ "aux" ] -> `Aux
        | [ "grant"; class_id; links; amount ] ->
            `Grant
              (int_of_string class_id, links_of_str links, float_of_string amount)
        | [ "bound"; class_id; links; bound ] ->
            `Bound
              (int_of_string class_id, links_of_str links, float_of_string bound)
        | [] | [ "" ] -> `Blank
        | _ -> `Malformed
      with
      | exception _ -> unparseable ()
      | `Malformed -> unparseable ()
      | #entry as e -> Ok e
      | `Blank -> Ok `Blank)

let parse text : (entry list, string) result =
  match String.split_on_char '\n' text with
  | first :: rest when String.trim first = header ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | line :: lines -> (
            match parse_line line with
            | Error e -> Error e
            | Ok `Blank -> go acc lines
            | Ok (#entry as e) -> go (e :: acc) lines)
      in
      go [] rest
  | first :: _ -> Error (Printf.sprintf "bad snapshot header: %S" (String.trim first))
  | [] -> Error "empty snapshot"

let replay broker entries =
  let restored = ref 0 in
  let rec go = function
    | [] -> Ok !restored
    | `Next below :: rest ->
        Flow_mib.reserve_ids (Broker.flow_mib broker) ~below;
        go rest
    | `Down link_id :: rest -> (
        match Topology.link_by_id (Broker.topology broker) link_id with
        | exception Not_found ->
            Error (Printf.sprintf "down line names an unknown link %d" link_id)
        | _ -> go rest)
    | `Flow (flow, profile, dreq, ingress, egress, rate, delay, links) :: rest -> (
        (* Booked verbatim on the saved links, with no policy or routing,
           once checked: a snapshot comes from disk, so its links must be a
           path from [ingress] to [egress] on which the saved pair passes
           {!Admission.schedulable}.  Replayed in flow-id order, every
           prefix of a schedulable set is schedulable. *)
        let topo = Broker.topology broker and pm = Broker.path_mib broker in
        match Path_mib.register pm (List.map (Topology.link_by_id topo) links) with
        | exception Not_found ->
            Error (Printf.sprintf "flow %d names an unknown link" flow)
        | exception Invalid_argument e -> Error (Printf.sprintf "flow %d: %s" flow e)
        | path ->
            let first = List.hd path.Path_mib.links in
            let last = List.nth path.Path_mib.links (path.Path_mib.hops - 1) in
            let ps = Admission.path_state (Broker.node_mib broker) pm path in
            if first.Topology.src <> ingress || last.Topology.dst <> egress then
              Error
                (Printf.sprintf "flow %d: links not from %s to %s" flow ingress egress)
            else if
              not
                (Traffic.conforms profile ~rate
                && Admission.schedulable ps ~rate ~delay ~lmax:profile.Traffic.lmax)
            then Error (Printf.sprintf "flow %d: saved reservation not schedulable" flow)
            else begin
              Broker.book_segment broker ~flow
                ~request:{ Types.profile; dreq; ingress; egress }
                ~links ~rate ~delay;
              incr restored;
              go rest
            end)
    | `Member (flow, class_id, profile, links) :: rest -> (
        match List.map (Topology.link_by_id (Broker.topology broker)) links with
        | exception Not_found ->
            Error (Printf.sprintf "class member %d names an unknown link" flow)
        | link_list -> (
            match Path_mib.register (Broker.path_mib broker) link_list with
            | exception Invalid_argument e ->
                Error (Printf.sprintf "class member %d: %s" flow e)
            | path -> (
                Flow_mib.reserve_ids (Broker.flow_mib broker) ~below:(flow + 1);
                match Aggregate.join (Broker.aggregate broker) ~class_id ~path ~flow profile with
                | Ok () ->
                    incr restored;
                    go rest
                | Error reason ->
                    Error
                      (Fmt.str "re-joining a class member failed: %a"
                         Types.pp_reject_reason reason))))
    | `Aux :: rest ->
        (* Every member is joined by now; drop the contingency the joins
           synthesised so the grant/bound lines below re-establish the
           primary's exact pools. *)
        let agg = Broker.aggregate broker in
        List.iter
          (fun (s : Aggregate.macro_stats) ->
            Aggregate.sweep_contingency agg ~class_id:s.Aggregate.class_id
              ~path_id:s.Aggregate.path_id)
          (Aggregate.all_macroflows agg);
        go rest
    | `Grant (class_id, links, amount) :: rest -> (
        match Path_mib.find_links (Broker.path_mib broker) ~links with
        | None ->
            Error
              (Printf.sprintf
                 "contingency grant for class %d names an unknown path" class_id)
        | Some info -> (
            match
              Aggregate.restore_grant (Broker.aggregate broker) ~class_id
                ~path_id:info.Path_mib.path_id ~amount
            with
            | Ok () -> go rest
            | Error reason ->
                Error
                  (Fmt.str "re-establishing a contingency grant failed: %a"
                     Types.pp_reject_reason reason)))
    | `Bound (class_id, links, bound) :: rest ->
        (match Path_mib.find_links (Broker.path_mib broker) ~links with
        | Some info ->
            Aggregate.set_edge_bound (Broker.aggregate broker) ~class_id
              ~path_id:info.Path_mib.path_id bound
        | None -> ());
        go rest
  in
  go entries

(* Put every link in its state at the checkpoint: the journal tail replays
   its [admit] records by routing them again. *)
let set_link_states broker entries =
  let down = List.filter_map (function `Down id -> Some id | _ -> None) entries in
  let topo = Broker.topology broker in
  List.iter
    (fun (l : Topology.link) ->
      let link_id = l.Topology.link_id in
      let up = not (List.mem link_id down) in
      if Topology.link_is_up topo ~link_id <> up then
        Broker.set_link_admin broker ~link_id ~up)
    (Topology.links topo)

let restore broker text =
  match parse text with
  | Error e -> Error e
  | Ok entries -> (
      (* Validate the whole replay against a scratch broker over the same
         topology and classes before touching the target.  The scratch
         holds every contingency grant for the duration of the replay
         (Feedback method, no queue-empty signals), which is the strictest
         admission the target can face — so a scratch success guarantees
         the commit below goes through on a fresh target. *)
      let scratch =
        Broker.create
          ~classes:(Aggregate.classes (Broker.aggregate broker))
          ~method_:Aggregate.Feedback ~time:Broker.immediate_time
          (Broker.topology broker)
      in
      match replay scratch entries with
      | Error e -> Error e
      | Ok _ ->
          let restored = replay broker entries in
          set_link_states broker entries;
          restored)

let flows_in text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         String.starts_with ~prefix:"flow " l
         || String.starts_with ~prefix:"member " l)
  |> List.length
