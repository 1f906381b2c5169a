#include "dns/codec.h"

#include <string_view>
#include <vector>

namespace lookaside::dns {

namespace {

constexpr std::uint16_t kPointerMask = 0xC000;
constexpr std::size_t kMaxPointerOffset = 0x3FFF;
constexpr std::size_t kMaxPointerJumps = 64;  // loop guard when decoding

/// Suffixes already written, for compression pointers: each a view of the
/// suffix's text inside one of the message's own names, plus the offset
/// where it was first written. string_view equality compares lengths, then
/// bytes. The first kInline entries live on the stack; later ones spill to
/// the heap, so the output never depends on the capacity.
class CompressionTable {
 public:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  /// Offset `suffix` was first written at, or kNotFound.
  [[nodiscard]] std::size_t find(std::string_view suffix) const {
    for (std::size_t i = 0; i < inline_count_; ++i) {
      if (inline_[i].suffix() == suffix) return inline_[i].offset;
    }
    for (const Entry& entry : spill_) {
      if (entry.suffix() == suffix) return entry.offset;
    }
    return kNotFound;
  }

  void add(std::string_view suffix, std::size_t offset) {
    const Entry entry{suffix.data(), static_cast<std::uint16_t>(suffix.size()),
                      static_cast<std::uint16_t>(offset)};
    if (inline_count_ < kInline) {
      inline_[inline_count_++] = entry;
    } else {
      spill_.push_back(entry);
    }
  }

 private:
  // No member initialisers: a table is built for every encode and
  // wire_size call, and an Entry that is trivially default-constructible
  // leaves the inline array unwritten until add() fills a slot.
  struct Entry {
    const char* data;
    std::uint16_t length;
    std::uint16_t offset;

    [[nodiscard]] std::string_view suffix() const { return {data, length}; }
  };
  static constexpr std::size_t kInline = 64;

  Entry inline_[kInline];
  std::size_t inline_count_ = 0;
  std::vector<Entry> spill_;
};

/// Writes `name` with compression against previously written names: a
/// pointer to the first occurrence of its longest already-written suffix.
/// Only suffixes first written at an offset a pointer can hold are
/// registered.
template <typename Writer>
void encode_compressed_name(const Name& name, Writer& writer,
                            CompressionTable& table) {
  for (std::string_view rest = name.internal_text(); !rest.empty();) {
    const std::string_view suffix = rest;
    const std::string_view label = Name::pop_label(rest);
    const std::size_t offset = table.find(suffix);
    if (offset != CompressionTable::kNotFound) {
      writer.u16(static_cast<std::uint16_t>(kPointerMask | offset));
      return;
    }
    if (writer.size() <= kMaxPointerOffset) table.add(suffix, writer.size());
    writer.u8(static_cast<std::uint8_t>(label.size()));
    writer.raw(reinterpret_cast<const std::uint8_t*>(label.data()),
               label.size());
  }
  writer.u8(0);
}

template <typename Writer>
void encode_record(const ResourceRecord& record, Writer& writer,
                   CompressionTable& table) {
  encode_compressed_name(record.name, writer, table);
  writer.u16(static_cast<std::uint16_t>(record.type));
  if (const auto* opt = std::get_if<OptRdata>(&record.rdata)) {
    // OPT smuggles its fields into CLASS and TTL (RFC 6891).
    writer.u16(opt->udp_payload_size);
    writer.u32(opt->dnssec_ok ? 0x00008000u : 0u);
    writer.u16(0);  // empty RDATA
    return;
  }
  writer.u16(static_cast<std::uint16_t>(record.rr_class));
  writer.u32(record.ttl);
  const std::size_t rdlength_offset = writer.size();
  writer.u16(0);  // patched below
  encode_rdata(record.rdata, writer);
  writer.patch_u16(rdlength_offset, static_cast<std::uint16_t>(
                                        writer.size() - rdlength_offset - 2));
}

/// The one message encoder; ByteWriter writes the bytes, CountingWriter
/// only sizes them.
template <typename Writer>
void encode(const Message& message, Writer& writer) {
  CompressionTable table;

  writer.u16(message.header.id);
  std::uint16_t flags = 0;
  if (message.header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((message.header.opcode & 0x0F) << 11);
  if (message.header.aa) flags |= 0x0400;
  if (message.header.tc) flags |= 0x0200;
  if (message.header.rd) flags |= 0x0100;
  if (message.header.ra) flags |= 0x0080;
  if (message.header.z) flags |= 0x0040;
  if (message.header.ad) flags |= 0x0020;
  if (message.header.cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(message.header.rcode) & 0x0F;
  writer.u16(flags);

  writer.u16(static_cast<std::uint16_t>(message.questions.size()));
  writer.u16(static_cast<std::uint16_t>(message.answers.size()));
  writer.u16(static_cast<std::uint16_t>(message.authorities.size()));
  const std::size_t additional_count =
      message.additionals.size() + (message.edns ? 1 : 0);
  writer.u16(static_cast<std::uint16_t>(additional_count));

  for (const Question& question : message.questions) {
    encode_compressed_name(question.name, writer, table);
    writer.u16(static_cast<std::uint16_t>(question.type));
    writer.u16(static_cast<std::uint16_t>(question.rr_class));
  }
  for (const ResourceRecord& record : message.answers) {
    encode_record(record, writer, table);
  }
  for (const ResourceRecord& record : message.authorities) {
    encode_record(record, writer, table);
  }
  for (const ResourceRecord& record : message.additionals) {
    encode_record(record, writer, table);
  }
  if (message.edns) {
    ResourceRecord opt;
    opt.name = Name::root();
    opt.type = RRType::kOpt;
    opt.rdata = OptRdata{message.udp_payload_size, message.dnssec_ok};
    encode_record(opt, writer, table);
  }
}

Name decode_compressed_name(ByteReader& reader) {
  std::string text;
  std::size_t jumps = 0;
  std::size_t return_position = 0;
  bool jumped = false;
  for (;;) {
    const std::uint8_t len = reader.u8();
    if (len == 0) break;
    if ((len & 0xC0) == 0xC0) {
      if (++jumps > kMaxPointerJumps) {
        throw WireFormatError("compression pointer loop");
      }
      const std::size_t offset =
          (static_cast<std::size_t>(len & 0x3F) << 8) | reader.u8();
      if (!jumped) {
        return_position = reader.position();
        jumped = true;
      }
      if (offset >= reader.position()) {
        throw WireFormatError("forward compression pointer");
      }
      reader.seek(offset);
      continue;
    }
    if (len > 63) throw WireFormatError("bad label length");
    append_wire_label(text, reader.raw(len));
  }
  if (jumped) reader.seek(return_position);
  return Name::parse(text);
}

/// Decodes one record. An OPT pseudo-record sets the message's EDNS
/// fields; RFC 6891 §6.1.1 allows one, in the additional section only.
ResourceRecord decode_record(ByteReader& reader, Message& message,
                             bool additional_section) {
  ResourceRecord record;
  record.name = decode_compressed_name(reader);
  record.type = static_cast<RRType>(reader.u16());
  if (record.type == RRType::kOpt) {
    if (!additional_section) {
      throw WireFormatError("OPT record outside the additional section");
    }
    if (message.edns) throw WireFormatError("second OPT record");
    OptRdata opt;
    opt.udp_payload_size = reader.u16();
    const std::uint32_t ttl = reader.u32();
    opt.dnssec_ok = (ttl & 0x8000u) != 0;
    const std::uint16_t rdlength = reader.u16();
    (void)reader.raw(rdlength);
    record.rr_class = RRClass::kIn;
    record.ttl = ttl;
    record.rdata = opt;
    message.edns = true;
    message.udp_payload_size = opt.udp_payload_size;
    message.dnssec_ok = opt.dnssec_ok;
    return record;
  }
  record.rr_class = static_cast<RRClass>(reader.u16());
  record.ttl = reader.u32();
  const std::uint16_t rdlength = reader.u16();
  record.rdata = decode_rdata(record.type, rdlength, reader);
  return record;
}

}  // namespace

Bytes encode_message(const Message& message) {
  ByteWriter writer;
  writer.reserve(wire_size(message));
  encode(message, writer);
  return writer.take();
}

Message decode_message(const Bytes& wire) {
  ByteReader reader(wire);
  Message message;

  message.header.id = reader.u16();
  const std::uint16_t flags = reader.u16();
  message.header.qr = flags & 0x8000;
  message.header.opcode = static_cast<std::uint8_t>((flags >> 11) & 0x0F);
  message.header.aa = flags & 0x0400;
  message.header.tc = flags & 0x0200;
  message.header.rd = flags & 0x0100;
  message.header.ra = flags & 0x0080;
  message.header.z = flags & 0x0040;
  message.header.ad = flags & 0x0020;
  message.header.cd = flags & 0x0010;
  message.header.rcode = static_cast<RCode>(flags & 0x0F);

  const std::uint16_t qdcount = reader.u16();
  const std::uint16_t ancount = reader.u16();
  const std::uint16_t nscount = reader.u16();
  const std::uint16_t arcount = reader.u16();

  // Real DNS messages carry zero or one question. A forged QDCOUNT above
  // that would make the loop below consume record bytes as phantom
  // questions — reading past the actual question section — so reject it
  // before touching the sections (the serving frontend decodes untrusted
  // wire bytes on every request).
  if (qdcount > 1) {
    throw WireFormatError("QDCOUNT disagrees with question section");
  }

  for (std::uint16_t i = 0; i < qdcount; ++i) {
    Question question;
    question.name = decode_compressed_name(reader);
    question.type = static_cast<RRType>(reader.u16());
    question.rr_class = static_cast<RRClass>(reader.u16());
    message.questions.push_back(std::move(question));
  }
  for (std::uint16_t i = 0; i < ancount; ++i) {
    message.answers.push_back(decode_record(reader, message, false));
  }
  for (std::uint16_t i = 0; i < nscount; ++i) {
    message.authorities.push_back(decode_record(reader, message, false));
  }
  for (std::uint16_t i = 0; i < arcount; ++i) {
    ResourceRecord record = decode_record(reader, message, true);
    if (record.type != RRType::kOpt) {
      message.additionals.push_back(std::move(record));
    }
  }
  if (!reader.done()) throw WireFormatError("trailing bytes after message");
  return message;
}

std::size_t wire_size(const Message& message) {
  CountingWriter counter;
  encode(message, counter);
  return counter.size();
}

}  // namespace lookaside::dns
