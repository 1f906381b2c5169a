// Full DNS message wire codec (RFC 1035 §4) with owner-name compression.
//
// The simulator's traffic-volume metrics (paper Tables 4-5, Figs 10-12) are
// computed from these encodings, so sizes track real packets: compression
// pointers, EDNS OPT records, and NSEC type bitmaps are all encoded
// faithfully.
//
// One encoder, two writers. The encoder is templated on its writer:
// ByteWriter appends the bytes, CountingWriter only adds up their lengths.
// wire_size runs it over the counting writer, so a size can never disagree
// with the bytes, and it allocates nothing: the compression table lives on
// the stack and keys suffixes by views into the message's own names.
// encode_message sizes the message the same way, reserves, then writes, so
// its one allocation is its result.
#pragma once

#include "dns/message.h"
#include "dns/wire_io.h"

namespace lookaside::dns {

/// Encodes a message to wire format. Owner names and question names are
/// compressed; names inside RDATA are not (RFC 3597 rules). A pointer
/// targets a suffix's first occurrence, and only suffixes first written at
/// offset <= 0x3FFF are targets.
[[nodiscard]] Bytes encode_message(const Message& message);

/// Decodes a wire-format message; throws WireFormatError on malformed input
/// (truncation, pointer loops, bad bitmaps, unknown RR types).
[[nodiscard]] Message decode_message(const Bytes& wire);

/// Encoded size in octets; allocates nothing.
[[nodiscard]] std::size_t wire_size(const Message& message);

}  // namespace lookaside::dns
