#ifndef QASCA_TESTS_SUPPORT_TEST_DIR_H_
#define QASCA_TESTS_SUPPORT_TEST_DIR_H_

#include <algorithm>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace qasca {

/// An empty scratch directory private to the running test:
/// "<TempDir>/qasca_<suite>.<test>", with a parameterised test's "/" turned
/// into "_" so each parameter gets its own. Wiped on every call. ctest runs
/// each test case as its own process, so tests that share one fixed path
/// (journal files above all) would overwrite each other under `ctest -j`.
inline std::string FreshTestDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("qasca_") + info->test_suite_name() + "." +
                     info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace qasca

#endif  // QASCA_TESTS_SUPPORT_TEST_DIR_H_
