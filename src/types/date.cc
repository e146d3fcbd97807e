#include "types/date.h"

#include <cstdio>

namespace erq {

namespace {

// Howard Hinnant's civil-from-days / days-from-civil algorithms.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y_out, int* m_out, int* d_out) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  *y_out = static_cast<int>(y + (m <= 2));
  *m_out = static_cast<int>(m);
  *d_out = static_cast<int>(d);
}

}  // namespace

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

StatusOr<int32_t> DateFromYmd(int year, int month, int day) {
  if (month < 1 || month > 12) {
    return Status::InvalidArgument("month out of range");
  }
  static const int kDaysInMonth[] = {31, 28, 31, 30, 31, 30,
                                     31, 31, 30, 31, 30, 31};
  int max_day = kDaysInMonth[month - 1];
  if (month == 2 && IsLeapYear(year)) max_day = 29;
  if (day < 1 || day > max_day) {
    return Status::InvalidArgument("day out of range");
  }
  if (year < 1 || year > 9999) {
    return Status::InvalidArgument("year out of range");
  }
  return static_cast<int32_t>(DaysFromCivil(year, month, day));
}

StatusOr<int32_t> DateFromString(const std::string& s) {
  int y = 0, m = 0, d = 0;
  char extra = '\0';
  if (std::sscanf(s.c_str(), "%d-%d-%d%c", &y, &m, &d, &extra) != 3) {
    return Status::ParseError("invalid date literal '" + s +
                              "' (want YYYY-MM-DD)");
  }
  return DateFromYmd(y, m, d);
}

std::string DateToString(int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  // Room for three full-width ints, so no day count can truncate (an
  // int32_t day count reaches years of seven digits and a sign).
  char buf[3 * 11 + 3];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

void DateToYmd(int32_t days, int* year, int* month, int* day) {
  CivilFromDays(days, year, month, day);
}

}  // namespace erq
