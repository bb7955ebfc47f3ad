#include "net/http.hpp"

#include <array>
#include <cctype>

#include "common/error.hpp"

namespace ptrack::net {

namespace {

/// Response-size cap for the blocking client: admin bodies are small; a
/// misbehaving peer must not grow our buffer without bound.
constexpr std::size_t kMaxHttpResponseBytes = std::size_t{8} << 20;

bool token_upper(std::string_view s) {
  if (s.empty() || s.size() > 16) return false;
  for (const char c : s) {
    if (c < 'A' || c > 'Z') return false;
  }
  return true;
}

bool printable_target(std::string_view s) {
  for (const char c : s) {
    const auto uc = static_cast<unsigned char>(c);
    if (uc <= 0x20 || uc >= 0x7f) return false;
  }
  return true;
}

/// Index one past the header-terminating blank line, or npos. Accepts
/// CRLF and bare-LF line endings.
std::size_t find_header_end(std::string_view buf) {
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf[i] != '\n') continue;
    if (i + 1 < buf.size() && buf[i + 1] == '\n') return i + 2;
    if (i + 2 < buf.size() && buf[i + 1] == '\r' && buf[i + 2] == '\n') {
      return i + 3;
    }
  }
  return std::string_view::npos;
}

}  // namespace

HttpParseStatus HttpRequestParser::fail(const char* reason) {
  error_ = reason;
  return HttpParseStatus::kError;
}

HttpParseStatus HttpRequestParser::parse_request_line(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return fail("no space after method");
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return fail("missing HTTP version");
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (!token_upper(method)) return fail("bad method token");
  if (target.empty() || target.front() != '/') {
    return fail("target must be origin-form");
  }
  if (target.size() > kMaxHttpTargetBytes) return fail("target too long");
  if (!printable_target(target)) return fail("bad byte in target");
  if (version == "HTTP/1.0") {
    request_.minor_version = 0;
  } else if (version == "HTTP/1.1") {
    request_.minor_version = 1;
  } else {
    return fail("unsupported HTTP version");
  }
  request_.method.assign(method);
  request_.target.assign(target);
  done_ = true;
  return HttpParseStatus::kDone;
}

HttpParseStatus HttpRequestParser::feed(std::span<const std::uint8_t> bytes) {
  if (error_ != nullptr) return HttpParseStatus::kError;
  if (done_) return HttpParseStatus::kDone;
  if (buf_.size() + bytes.size() > kMaxHttpRequestBytes) {
    return fail("request exceeds size budget");
  }
  buf_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  const std::size_t end = find_header_end(buf_);
  if (end == std::string_view::npos) {
    if (buf_.size() >= kMaxHttpRequestBytes) {
      return fail("request exceeds size budget");
    }
    return HttpParseStatus::kNeedMore;
  }
  const std::string_view head(buf_.data(), end);
  const std::size_t eol = head.find('\n');
  if (eol == 0) return fail("empty request line");
  return parse_request_line(head.substr(0, eol));
}

const char* http_status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string http_response(int status, std::string_view content_type,
                          std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += http_status_text(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

HttpGetResult http_get(const Endpoint& ep, std::string_view target,
                       double timeout_s) {
  HttpGetResult res;
  try {
    const Socket sock = connect_to(ep);
    sock.set_io_timeout(timeout_s);
    std::string req;
    req.reserve(target.size() + 64);
    req += "GET ";
    req += target;
    req += " HTTP/1.0\r\nHost: ptrack\r\nConnection: close\r\n\r\n";
    // A server may answer and close without reading the request (the
    // admin plane's immediate 503 shed). The send then fails with EPIPE
    // while the response already waits in our receive buffer, so read it
    // either way; the send failure is the error only if nothing came back.
    const bool sent = sock.write_all(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(req.data()), req.size()));
    std::string raw;
    std::array<std::uint8_t, 4096> chunk{};
    while (true) {
      const std::ptrdiff_t n = sock.read_some(chunk);
      if (n == 0) break;  // EOF: HTTP/1.0 close delimits the body
      if (n < 0) {
        res.error = sent ? "receive timed out" : "send failed or timed out";
        return res;
      }
      if (raw.size() + static_cast<std::size_t>(n) >
          kMaxHttpResponseBytes) {
        res.error = "response exceeds size budget";
        return res;
      }
      raw.append(reinterpret_cast<const char*>(chunk.data()),
                 static_cast<std::size_t>(n));
    }
    if (!sent && raw.empty()) {
      res.error = "send failed or timed out";
      return res;
    }
    const std::string_view view(raw);
    if (view.substr(0, 7) != "HTTP/1.") {
      res.error = "not an HTTP response";
      return res;
    }
    const std::size_t sp = view.find(' ');
    if (sp == std::string_view::npos || sp + 4 > view.size()) {
      res.error = "bad status line";
      return res;
    }
    int status = 0;
    for (std::size_t i = sp + 1; i < sp + 4 && i < view.size(); ++i) {
      const char c = view[i];
      if (c < '0' || c > '9') {
        res.error = "bad status code";
        return res;
      }
      status = status * 10 + (c - '0');
    }
    const std::size_t body_at = find_header_end(view);
    if (body_at == std::string_view::npos) {
      res.error = "headers not terminated";
      return res;
    }
    res.status = status;
    res.body.assign(view.substr(body_at));
    res.ok = true;
    return res;
  } catch (const Error& e) {
    res.error = e.what();
    return res;
  }
}

}  // namespace ptrack::net
