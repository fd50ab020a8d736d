# Shared per-target compile/link options for the bbng tree.
#
#   BBNG_WERROR          — treat warnings as errors (default OFF; CI turns it on)
#   BBNG_SANITIZE        — build with AddressSanitizer + UBSan (default OFF)
#   BBNG_SANITIZE_THREAD — build with ThreadSanitizer (default OFF; mutually
#                          exclusive with BBNG_SANITIZE — TSan cannot be
#                          combined with ASan in one binary)

option(BBNG_WERROR "Treat warnings as errors" OFF)
option(BBNG_SANITIZE "Enable Address/UB sanitizers" OFF)
option(BBNG_SANITIZE_THREAD "Enable ThreadSanitizer" OFF)

if(BBNG_SANITIZE AND BBNG_SANITIZE_THREAD)
  message(FATAL_ERROR
    "BBNG_SANITIZE and BBNG_SANITIZE_THREAD are mutually exclusive: "
    "ASan and TSan cannot be linked into the same binary")
endif()

function(bbng_apply_options target)
  if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    target_compile_options(${target} PRIVATE -Wall -Wextra)
    if(BBNG_WERROR)
      target_compile_options(${target} PRIVATE -Werror)
    endif()
    if(BBNG_SANITIZE)
      target_compile_options(${target} PRIVATE
        -fsanitize=address,undefined -fno-omit-frame-pointer)
      target_link_options(${target} PRIVATE -fsanitize=address,undefined)
    endif()
    if(BBNG_SANITIZE_THREAD)
      target_compile_options(${target} PRIVATE
        -fsanitize=thread -fno-omit-frame-pointer)
      target_link_options(${target} PRIVATE -fsanitize=thread)
    endif()
  elseif(MSVC)
    target_compile_options(${target} PRIVATE /W4)
    if(BBNG_WERROR)
      target_compile_options(${target} PRIVATE /WX)
    endif()
  endif()
endfunction()
