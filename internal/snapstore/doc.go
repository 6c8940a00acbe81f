// Package snapstore is the binary storage layer for SAN snapshot
// timelines: the 79 daily crawl snapshots of the paper (98 simulated
// days in this reproduction) packed into one compact, structure-sharing
// container.
//
// The layer has three parts:
//
//   - a binary snapshot format (EncodeSnapshot/DecodeSnapshot):
//     CSR-packed social out-adjacency, attribute links and the
//     attribute catalog, with varint + delta encoding of sorted
//     neighbor lists (in-adjacency is derived on decode, so it is
//     never stored);
//   - a Timeline container: day 0 as a full snapshot, every later day
//     as a forward delta (new nodes, new edges, new attribute links —
//     the evolution is append-only), reconstructable at any day and
//     serializable to a single file (WriteTo/ReadTimeline), packed
//     through one of two DaySinks: Live in memory, StreamWriter on
//     disk;
//   - a pull-based CursorN that walks every day in order over one
//     evolving SAN per timeline, handing incremental consumers each
//     day's parsed Delta.
//
// internal/gplus emits timelines directly from the reference
// simulation (Simulator.StreamTimelines), internal/experiments computes
// its evolution figures by walking a packed timeline pair with a
// cursor, and cmd/sanstore packs, inspects and extracts timeline files.
package snapstore
